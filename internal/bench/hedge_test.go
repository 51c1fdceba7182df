package bench

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestHedgeShape asserts the hedge experiment's qualitative content
// at quick scale — the PR's acceptance bar:
//
//  1. the trigger=∞ variant is indistinguishable from the unhedged
//     baseline in every cell (arming hedging is free until it fires);
//  2. under the light fault plan (the PR 4 wedged-firmware incident)
//     at least one firing variant cuts the monolithic vpu-4 target's
//     p99 below the unhedged baseline, with wins recorded;
//  3. the hedge accounting is coherent: wins and waste never exceed
//     launches, waste is reported, and the fault-free firing variants
//     never reduce goodput below 99% of the baseline (the budget must
//     prevent hedge storms).
func TestHedgeShape(t *testing.T) {
	skipHeavy(t)
	pts, err := harness(t).HedgePoints()
	if err != nil {
		t.Fatal(err)
	}
	want := len(resilienceConfigs()) * (1 + len(resilienceLevels())*5)
	if len(pts) != want {
		t.Fatalf("%d hedge points, want %d", len(pts), want)
	}
	type cell struct{ config, faults string }
	byCell := map[cell]map[string]HedgePoint{}
	for _, p := range pts {
		if p.Hedge == "probe" {
			if p.AchievedIPS <= 0 || p.SLOMS <= 0 {
				t.Errorf("%s: capacity probe %.2f img/s, slo %.1fms", p.Config, p.AchievedIPS, p.SLOMS)
			}
			continue
		}
		k := cell{p.Config, p.Faults}
		if byCell[k] == nil {
			byCell[k] = map[string]HedgePoint{}
		}
		byCell[k][p.Hedge] = p
		if p.HedgeWins > p.Hedged || p.HedgeWaste > p.Hedged {
			t.Errorf("%s %s/%s: wins %d / waste %d exceed %d launched",
				p.Config, p.Faults, p.Hedge, p.HedgeWins, p.HedgeWaste, p.Hedged)
		}
		if (p.Hedge == "off" || p.Hedge == "inf") && p.Hedged != 0 {
			t.Errorf("%s %s/%s: %d hedges launched by a non-firing variant",
				p.Config, p.Faults, p.Hedge, p.Hedged)
		}
	}
	for _, cfg := range resilienceConfigs() {
		for _, level := range resilienceLevels() {
			m := byCell[cell{cfg.name, level.name}]
			// (1) trigger=∞ matches off bit for bit, label aside.
			off, inf := m["off"], m["inf"]
			inf.Hedge = off.Hedge
			if !reflect.DeepEqual(off, inf) {
				t.Errorf("%s/%s: trigger=∞ differs from the unhedged baseline:\n%+v\nvs\n%+v",
					cfg.name, level.name, inf, off)
			}
			// (3) no hedge storm on the healthy system.
			if level.name == "none" {
				for _, v := range []string{"t2", "t4", "p95"} {
					if p := m[v]; p.GoodputPct < 0.99*off.GoodputPct {
						t.Errorf("%s/none/%s: goodput %.1f%% vs %.1f%% unhedged — hedge storm",
							cfg.name, v, p.GoodputPct, off.GoodputPct)
					}
				}
			}
		}
	}
	// (2) The hedged vpu-4 target beats its unhedged p99 under the
	// light plan.
	light := byCell[cell{"vpu-4", "light"}]
	off := light["off"]
	improved := false
	for _, v := range []string{"t2", "t4", "p95"} {
		p := light[v]
		if p.P99MS < off.P99MS && p.HedgeWins > 0 {
			improved = true
		}
	}
	if !improved {
		t.Errorf("no firing variant beat vpu-4/light unhedged p99 %.1fms: %+v", off.P99MS, light)
	}
}

// TestDynamicBudgetSuppressesHedgeStorm replays the incident the
// hedge budget exists for — a budgetless 2x trigger on the pooled
// config, no fault injected, collapsing a healthy fleet's goodput by
// feeding on its own queueing (the BENCH_PR5 storm, measured at 8%
// goodput) — and pins down that the utilization-scaled dynamic budget
// keeps it suppressed:
//
//  1. the storm is still real: the budgetless variant duplicates an
//     outsized share of the offered items and loses a large fraction
//     of the unhedged goodput (the regression this test guards would
//     otherwise be invisible);
//  2. the dynamic budget defuses it: same trigger, same traffic, same
//     seeds, goodput within 1% of the unhedged baseline;
//  3. the suppression is the budget's doing, not the trigger going
//     quiet — the dynamic variant launches far fewer duplicates than
//     the storm.
func TestDynamicBudgetSuppressesHedgeStorm(t *testing.T) {
	skipHeavy(t)
	h := harness(t)
	cfg := resilienceConfigs()[1] // pool-4x1, the storm-prone config
	if !cfg.pooled {
		t.Fatalf("expected the pooled config, got %+v", cfg)
	}
	cells, err := h.faultCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0] // "none": the storm needs no fault to collapse a healthy fleet
	if c.level.name != "none" {
		t.Fatalf("expected the fault-free cell, got %q", c.level.name)
	}
	run := func(name string, hc core.HedgeConfig) HedgePoint {
		t.Helper()
		pt, err := h.hedgePoint(c, hedgeVariant{name: name, hc: hc})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	off := run("off", core.HedgeConfig{})
	storm := run("storm", core.HedgeConfig{Trigger: 2 * c.unit})
	dyn := run("dyn", core.HedgeConfig{Trigger: 2 * c.unit, Budget: hedgeBudget, DynamicBudget: true})
	if storm.GoodputPct > 0.7*off.GoodputPct {
		t.Errorf("budgetless 2x trigger no longer storms (goodput %.1f%% vs %.1f%% unhedged) — this regression gate is measuring nothing",
			storm.GoodputPct, off.GoodputPct)
	}
	if dyn.GoodputPct < 0.99*off.GoodputPct {
		t.Errorf("dynamic budget failed to suppress the hedge storm: goodput %.1f%% vs %.1f%% unhedged",
			dyn.GoodputPct, off.GoodputPct)
	}
	if storm.Hedged == 0 || dyn.Hedged >= storm.Hedged/2 {
		t.Errorf("dynamic budget launched %d duplicates vs the storm's %d — suppression should come from withheld hedges",
			dyn.Hedged, storm.Hedged)
	}
}
