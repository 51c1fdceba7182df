package tenant

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestConfigValidate holds one case per rule of Config.Validate, the
// only copy of the tenant rules; each error must begin with the config
// key of the offending parameter.
func TestConfigValidate(t *testing.T) {
	arr := core.PoissonArrivals(5)
	lane := func(mut func(*Tenant)) Config {
		tn := Tenant{ID: "a", Arrivals: arr}
		mut(&tn)
		return Config{Tenants: []Tenant{tn}}
	}
	cases := []struct {
		name string
		cfg  Config
		key  string
	}{
		{"empty ID", lane(func(tn *Tenant) { tn.ID = "" }), "tenants[0].id:"},
		{"duplicate ID", Config{Tenants: []Tenant{{ID: "a", Arrivals: arr}, {ID: "a", Arrivals: arr}}}, "tenants[1].id:"},
		{"missing arrivals", lane(func(tn *Tenant) { tn.Arrivals = nil }), "tenants[0].arrivals:"},
		{"NaN weight", lane(func(tn *Tenant) { tn.Weight = math.NaN() }), "tenants[0].weight:"},
		{"negative weight", lane(func(tn *Tenant) { tn.Weight = -1 }), "tenants[0].weight:"},
		{"negative SLO", lane(func(tn *Tenant) { tn.SLO = -time.Second }), "tenants[0].slo:"},
		{"negative depth", lane(func(tn *Tenant) { tn.QueueDepth = -1 }), "tenants[0].queue_depth:"},
		{"negative quota", lane(func(tn *Tenant) { tn.MaxInFlight = -1 }), "tenants[0].max_in_flight:"},
		{"negative burst", lane(func(tn *Tenant) { tn.Burst = -1 }), "tenants[0].burst:"},
		{"infinite rate quota", lane(func(tn *Tenant) { tn.RatePerSec = math.Inf(1) }), "tenants[0].rate_per_sec:"},
		{"NaN rate quota", lane(func(tn *Tenant) { tn.RatePerSec = math.NaN() }), "tenants[0].rate_per_sec:"},
		{"negative shared depth", Config{SharedDepth: -1}, "shared_depth:"},
		{"unknown scheduler", Config{Scheduler: Priority + 1}, "scheduler:"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), c.key) {
			t.Errorf("%s: error %v, want one starting %q", c.name, err, c.key)
		}
	}
	ok := Config{Scheduler: WeightedFair, Tenants: []Tenant{
		{ID: "a", Weight: 3, Arrivals: arr, RatePerSec: 10, Burst: 2},
		{ID: "b", Arrivals: arr, SLO: time.Second, QueueDepth: 4, MaxInFlight: 8},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
