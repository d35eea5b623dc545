package experiments

import (
	"math"
	"testing"

	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/serving"
)

// TestSweepsFailFree checks that every serving sweep rejects an invalid
// axis before it does any simulation work: the error comes back while
// a fresh engine has still computed no profile.
func TestSweepsFailFree(t *testing.T) {
	w := sweepWorkload()
	cfg := gpusim.VegaFE()
	rr := []string{serving.RoutingRoundRobin}
	for _, tc := range []struct {
		name string
		run  func(*Lab) error
	}{
		{"load: no factors", func(lab *Lab) error {
			_, err := LoadSweep(lab, w, cfg, 64, nil)
			return err
		}},
		{"load: negative factor", func(lab *Lab) error {
			_, err := LoadSweep(lab, w, cfg, 64, []float64{-1})
			return err
		}},
		{"fleet: zero replicas", func(lab *Lab) error {
			_, err := FleetSweep(lab, w, cfg, 64, []int{0}, rr, 1)
			return err
		}},
		{"fleet: too many replicas", func(lab *Lab) error {
			_, err := FleetSweep(lab, w, cfg, 64, []int{serving.MaxFleetReplicas + 1}, rr, 1)
			return err
		}},
		{"fleet: unknown routing", func(lab *Lab) error {
			_, err := FleetSweep(lab, w, cfg, 64, []int{1}, []string{"nope"}, 1)
			return err
		}},
		{"fleet: kv routing without the KV model", func(lab *Lab) error {
			_, err := FleetSweep(lab, w, cfg, 64, []int{1}, []string{serving.RoutingKV}, 1)
			return err
		}},
		{"fleet: negative load factor", func(lab *Lab) error {
			_, err := FleetSweep(lab, w, cfg, 64, []int{1}, rr, -1)
			return err
		}},
		{"kv: no capacities", func(lab *Lab) error {
			_, err := KVSweep(lab, w, cfg, 64, nil, DefaultKVLoadFactor)
			return err
		}},
		{"kv: zero capacity", func(lab *Lab) error {
			_, err := KVSweep(lab, w, cfg, 64, []float64{1, 0}, DefaultKVLoadFactor)
			return err
		}},
		{"kv: NaN capacity", func(lab *Lab) error {
			_, err := KVSweep(lab, w, cfg, 64, []float64{math.NaN()}, DefaultKVLoadFactor)
			return err
		}},
		{"kv: negative load factor", func(lab *Lab) error {
			_, err := KVSweep(lab, w, cfg, 64, KVSweepCapacitiesGB(), -1)
			return err
		}},
		{"tenant: negative load factor", func(lab *Lab) error {
			_, err := TenantSweep(lab, w, cfg, 64, -1)
			return err
		}},
		{"tenant: NaN load factor", func(lab *Lab) error {
			_, err := TenantSweep(lab, w, cfg, 64, math.NaN())
			return err
		}},
		{"plan: negative budget", func(lab *Lab) error {
			_, err := PlanSweep(lab, w, cfg, 64, []float64{-1})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := engine.New()
			if err := tc.run(NewLabWith(eng)); err == nil {
				t.Fatal("invalid input accepted")
			}
			if misses := eng.Stats().Misses; misses != 0 {
				t.Errorf("failed only after %d engine misses, want 0", misses)
			}
		})
	}
}
