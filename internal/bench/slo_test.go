package bench

import "testing"

// TestSLOShape asserts the slo experiment's qualitative content at
// quick scale: one capacity probe per configuration plus one point
// per (load, variant), coherent quantiles, equal offered traffic
// across variants of a cell, and the two headline effects — adaptive
// assembly shrinking the realized batch below the knee, bounded
// admission shedding (only) past it.
func TestSLOShape(t *testing.T) {
	skipHeavy(t)
	pts, err := harness(t).SLOPoints()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "slo_points.json", goldenJSON(t, pts))
	want := 0
	for _, cfg := range sloConfigs() {
		want += 1 + len(sloLoads)*len(sloVariants(cfg))
	}
	if len(pts) != want {
		t.Fatalf("%d slo points, want %d", len(pts), want)
	}
	type cell struct {
		dev  string
		load float64
	}
	offered := map[cell]float64{}
	meanBatch := map[cell]map[string]float64{}
	for _, p := range pts {
		if p.LoadFraction == 0 {
			if p.AchievedIPS <= 0 || p.SLOMS <= 0 {
				t.Errorf("%s: capacity probe %.2f img/s, slo %.1fms", p.Device, p.AchievedIPS, p.SLOMS)
			}
			continue
		}
		if p.P50MS <= 0 || p.P99MS < p.P95MS || p.P95MS < p.P50MS || p.MaxMS < p.P99MS {
			t.Errorf("%s %s/%s@%.0f%%: inconsistent quantiles %+v",
				p.Device, p.Batching, p.Admission, p.LoadFraction*100, p)
		}
		if p.GoodputPct < 0 || p.GoodputPct > 100 || p.ShedPct < 0 || p.ShedPct > 100 {
			t.Errorf("%s %s/%s@%.0f%%: goodput %.1f%% shed %.1f%% out of range",
				p.Device, p.Batching, p.Admission, p.LoadFraction*100, p.GoodputPct, p.ShedPct)
		}
		if p.Admission == "open" && p.ShedPct != 0 {
			t.Errorf("%s %s/open@%.0f%%: unbounded ingress shed %.1f%%",
				p.Device, p.Batching, p.LoadFraction*100, p.ShedPct)
		}
		k := cell{p.Device, p.LoadFraction}
		if prev, ok := offered[k]; ok && prev != p.OfferedIPS {
			t.Errorf("%s@%.0f%%: variants saw different offered rates %.2f vs %.2f",
				p.Device, p.LoadFraction*100, prev, p.OfferedIPS)
		}
		offered[k] = p.OfferedIPS
		if p.MeanBatch > 0 {
			if meanBatch[k] == nil {
				meanBatch[k] = map[string]float64{}
			}
			if p.Admission == "open" {
				meanBatch[k][p.Batching] = p.MeanBatch
			}
		}
	}
	for _, dev := range []string{"cpu-b8", "gpu-b8"} {
		k := cell{dev, sloLoads[0]}
		mb := meanBatch[k]
		if mb["fixed"] == 0 || mb["adaptive"] == 0 {
			t.Errorf("%s@%.0f%%: missing mean batch sizes %v", dev, sloLoads[0]*100, mb)
			continue
		}
		if mb["adaptive"] >= mb["fixed"] {
			t.Errorf("%s@%.0f%%: adaptive mean batch %.1f not below fixed %.1f",
				dev, sloLoads[0]*100, mb["adaptive"], mb["fixed"])
		}
	}
}
