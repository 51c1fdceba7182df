package main

import (
	"fmt"
	"time"

	"repro/internal/pipeline"
	"repro/internal/scenario"
)

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// groupName names a device group in metric keys: "vpu4", "cpu-b8".
func groupName(g pipeline.Group) string {
	if g.Kind == pipeline.GroupVPU {
		return fmt.Sprintf("vpu%d", max(g.Devices, 1))
	}
	batch := g.Batch
	if batch == 0 {
		batch = 8
	}
	return fmt.Sprintf("%s-b%d", g.Kind, batch)
}

// summarize reads the virtual-time and functional metrics off the
// session reports, checks item conservation, and counts the graph
// allocations (blob parses) the VPU sticks performed. The last
// session is the workload's primary one: its report gives the
// end-to-end virtual metrics.
func summarize(w workload, scs []*scenario.Scenario, cfgs []pipeline.Config, reps []*pipeline.Report) (*repResult, error) {
	res := &repResult{Metrics: map[string]float64{}, Layers: map[string]float64{}}
	lay := res.Layers
	var simTime time.Duration
	for i, rep := range reps {
		images := scs[i].Images
		res.Ops += images
		res.Lost += images - rep.Collector.Arrivals()
		simTime += rep.SimTime
		groups := cfgs[i].Groups
		for j, t := range rep.Targets {
			g := "group." + groupName(groups[j])
			lay[g+".throughput_ips"] += t.Throughput
			lay[g+".service_p99_ms"] = max(lay[g+".service_p99_ms"], ms(t.Latency.ServiceP99))
			lay[g+".energy_j"] += t.EnergyJoules
			if groups[j].Kind == pipeline.GroupVPU {
				lay["ncs.graph_allocs"] += float64(groups[j].Devices + t.Recovered)
			}
		}
		for _, t := range rep.Tenants {
			p := "tenant." + t.ID
			lay[p+".goodput_pct"] = 100 * t.Goodput
			lay[p+".p99_ms"] = ms(t.Latency.P99)
			lay[p+".shed"] = float64(t.Shed)
			lay[p+".quota_rejected"] = float64(t.QuotaRejected)
		}
	}
	lay["sim.virtual_s"] = simTime.Seconds()

	rep := reps[len(reps)-1]
	m := res.Metrics
	m["sim_throughput_ips"] = rep.Throughput
	m["sim_p50_ms"] = ms(rep.Latency.P50)
	m["sim_p99_ms"] = ms(rep.Latency.P99)
	m["sim_goodput_pct"] = 100 * rep.Goodput
	m["sim_img_per_w"] = rep.ImagesPerWatt
	lay["sim.latency_samples"] = float64(rep.Latency.N)
	lay["core.queue_p99_ms"] = ms(rep.Latency.QueueP99)
	lay["core.service_p99_ms"] = ms(rep.Latency.ServiceP99)
	lay["admission.shed"] = float64(rep.Admission.Shed)
	lay["admission.expired"] = float64(rep.Admission.Expired)
	lay["admission.shrinks"] = float64(rep.Admission.Shrinks)
	lay["hedge.launched"] = float64(rep.Hedged)
	lay["hedge.win_pct"] = pct(rep.HedgeWins, rep.Hedged)
	lay["hedge.waste_pct"] = 100 * rep.HedgeWasteRate
	lay["fault.injected"] = float64(rep.FaultsInjected)
	lay["recovery.outages"] = float64(rep.Outages)
	lay["recovery.recovered"] = float64(rep.Recovered)
	lay["recovery.retries"] = float64(rep.Retries)
	lay["recovery.fault_drops"] = float64(rep.FaultDrops)
	lay["recovery.mttr_ms"] = ms(rep.MTTR)
	lay["recovery.uptime_pct"] = 100 * rep.Uptime

	if w.functional {
		if err := compareFunctional(res, reps); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// compareFunctional adds the Fig. 7 metrics: each session's top-1
// error and how often the FP16 session agrees with the FP32 one.
func compareFunctional(res *repResult, reps []*pipeline.Report) error {
	if len(reps) != 2 {
		return fmt.Errorf("functional workload needs an FP32 and an FP16 session, got %d", len(reps))
	}
	fp32, fp16 := byIndex(reps[0].Results), byIndex(reps[1].Results)
	if len(fp32) != len(fp16) {
		return fmt.Errorf("functional sessions completed %d and %d images", len(fp32), len(fp16))
	}
	agree := 0
	for k := range fp32 {
		if fp32[k].Index != fp16[k].Index {
			return fmt.Errorf("functional sessions disagree on image %d/%d", fp32[k].Index, fp16[k].Index)
		}
		if fp32[k].Pred == fp16[k].Pred {
			agree++
		}
	}
	res.Layers["fp32_top1_err_pct"] = 100 * reps[0].TopOneError
	res.Layers["fp16_top1_err_pct"] = 100 * reps[1].TopOneError
	res.Layers["fp16_fp32_agree_pct"] = pct(agree, len(fp32))
	return nil
}
