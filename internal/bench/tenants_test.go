package bench

import "testing"

// TestTenantsShape pins the multi-tenant experiment at golden scale:
// the quiet baseline's steady tenants plus every (load, policy) cell's
// four tenants, each point's JSON byte for byte against the committed
// golden, so a change to how the fleet or its capacity probe is
// assembled must replay it.
func TestTenantsShape(t *testing.T) {
	skipHeavy(t)
	h, err := NewHarness(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := h.TenantPoints()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tenants_points.json", goldenJSON(t, pts))
	want := tenantSteadyCount + len(tenantLoads)*len(tenantPolicies())*(tenantSteadyCount+1)
	if len(pts) != want {
		t.Fatalf("%d tenant points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.GoodputPct < 0 || p.GoodputPct > 100 || p.P99MS < p.P50MS {
			t.Errorf("%s@%d%% %s: incoherent point %+v", p.Policy, p.LoadPct, p.Tenant, p)
		}
	}
}
