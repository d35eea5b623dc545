package gpusim

import (
	"strings"
	"testing"
	"testing/quick"

	"seqpoint/internal/tensor"
)

func TestTableII(t *testing.T) {
	cfgs := TableII()
	if len(cfgs) != 5 {
		t.Fatalf("TableII has %d configs, want 5", len(cfgs))
	}
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("config %d invalid: %v", i, err)
		}
	}
	if cfgs[0] != VegaFE() {
		t.Error("config #1 should be the full-speed Vega FE")
	}
	if cfgs[1].ClockGHz != 0.852 {
		t.Errorf("config #2 clock = %v, want 0.852", cfgs[1].ClockGHz)
	}
	if cfgs[2].NumCUs != 16 {
		t.Errorf("config #3 CUs = %d, want 16", cfgs[2].NumCUs)
	}
	if cfgs[3].L1KBPerCU != 0 {
		t.Errorf("config #4 L1 = %d, want 0", cfgs[3].L1KBPerCU)
	}
	if cfgs[4].L2MB != 0 {
		t.Errorf("config #5 L2 = %d, want 0", cfgs[4].L2MB)
	}
}

func TestConfigValidate(t *testing.T) {
	base := VegaFE()
	mutations := []func(*Config){
		func(c *Config) { c.ClockGHz = 0 },
		func(c *Config) { c.NumCUs = 0 },
		func(c *Config) { c.L1KBPerCU = -1 },
		func(c *Config) { c.L2MB = -1 },
		func(c *Config) { c.HBMGBps = 0 },
		func(c *Config) { c.LaunchOverheadUS = -1 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the config", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("VegaFE should validate: %v", err)
	}
}

func TestConfigPeakGFLOPs(t *testing.T) {
	// 64 CUs x 64 lanes x 2 flops x 1.6 GHz = 13107 GFLOP/s (the Vega
	// FE's advertised ~13.1 TFLOP/s single-precision peak).
	got := VegaFE().PeakGFLOPs()
	if got < 13000 || got > 13200 {
		t.Errorf("PeakGFLOPs = %v, want ~13107", got)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config should be rejected")
	}
	if _, err := New(VegaFE()); err != nil {
		t.Fatal(err)
	}
}

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestPricePositiveTimes(t *testing.T) {
	sim := mustSim(t, VegaFE())
	ops := []tensor.Op{
		tensor.NewGEMM(1024, 1024, 1024, "g"),
		tensor.NewConv2D(8, 3, 64, 64, 16, 3, 3, 1, 1, 1, 1, "c"),
		tensor.NewElementwise(1<<20, 4, "e"),
		tensor.NewReduction(1<<20, 64, "r"),
		tensor.NewEmbedding(30000, 512, 4096, "m"),
	}
	for _, op := range ops {
		inv := sim.Price(op)
		if inv.TimeUS <= 0 {
			t.Errorf("%s priced at %v us", op.Signature(), inv.TimeUS)
		}
		if inv.TimeUS < VegaFE().LaunchOverheadUS {
			t.Errorf("%s time %v below launch overhead", op.Signature(), inv.TimeUS)
		}
		if inv.Kernel == "" || inv.Signature == "" {
			t.Errorf("%s missing identity: %+v", op.Signature(), inv)
		}
		if inv.Counters.VALUInsts < 0 || inv.Counters.LoadBytes < 0 {
			t.Errorf("%s negative counters: %+v", op.Signature(), inv.Counters)
		}
	}
}

func TestPriceLowerClockIsSlower(t *testing.T) {
	cfgs := TableII()
	fast := mustSim(t, cfgs[0])
	slow := mustSim(t, cfgs[1]) // 852 MHz
	// A compute-bound op must slow with the clock.
	g := tensor.NewGEMM(4096, 4096, 1024, "g")
	tf, ts := fast.Price(g).TimeUS, slow.Price(g).TimeUS
	if ts <= tf {
		t.Errorf("852 MHz (%v us) should be slower than 1.6 GHz (%v us)", ts, tf)
	}
}

func TestPriceFewerCUsSlower(t *testing.T) {
	cfgs := TableII()
	full := mustSim(t, cfgs[0])
	quarter := mustSim(t, cfgs[2]) // 16 CUs
	g := tensor.NewGEMM(4096, 4096, 1024, "g")
	if quarter.Price(g).TimeUS <= full.Price(g).TimeUS {
		t.Error("16 CUs should be slower than 64 CUs on a large GEMM")
	}
	// Memory-bound streaming also slows: fewer CUs cannot saturate HBM.
	e := tensor.NewElementwise(1<<24, 1, "e")
	if quarter.Price(e).TimeUS <= full.Price(e).TimeUS {
		t.Error("16 CUs should not saturate HBM like 64 CUs")
	}
}

func TestPriceCacheDisablingHurts(t *testing.T) {
	cfgs := TableII()
	full := mustSim(t, cfgs[0])
	noL1 := mustSim(t, cfgs[3])
	noL2 := mustSim(t, cfgs[4])
	g := tensor.NewGEMM(2048, 2048, 2048, "g")
	base := full.Price(g).TimeUS
	if noL1.Price(g).TimeUS <= base {
		t.Error("disabling L1 should slow blocked GEMMs")
	}
	if noL2.Price(g).TimeUS <= base {
		t.Error("disabling L2 should slow reuse-heavy GEMMs")
	}
}

func TestKernelNameStableAcrossConfigs(t *testing.T) {
	// All Table II configs are the same chip: kernel dispatch must not
	// change, or SeqPoints identified on #1 would run different code on
	// #2-#5 (the paper identifies SeqPoints once, on config #1).
	ops := []tensor.Op{
		tensor.NewGEMM(29, 25728, 1600, "classifier"),
		tensor.NewGEMM(4096, 64, 1024, "hproj"),
		tensor.NewElementwise(204800, 12, "gates"),
		tensor.NewReduction(65536, 64, "softmax_sum"),
	}
	for _, op := range ops {
		name := KernelName(op)
		if name == "" {
			t.Fatalf("empty kernel name for %s", op.Signature())
		}
	}
}

func TestKernelNameShapeSpecialization(t *testing.T) {
	// Different GEMM shapes can dispatch different tile variants.
	big := KernelName(tensor.NewGEMM(4096, 4096, 1024, "g"))
	tiny := KernelName(tensor.NewGEMM(16, 16, 1024, "g"))
	if big == tiny {
		t.Errorf("large and tiny GEMMs share kernel %q", big)
	}
	if !strings.Contains(tiny, "skinny") {
		t.Errorf("tiny GEMM should use the skinny variant: %q", tiny)
	}
}

func TestKernelNameIgnoresLayerIndices(t *testing.T) {
	a := KernelName(tensor.NewElementwise(8192, 12, "gru_0_d0_gates"))
	b := KernelName(tensor.NewElementwise(8192, 12, "gru_4_d1_gates"))
	if a != b {
		t.Errorf("same-flavor kernels differ: %q vs %q", a, b)
	}
}

func TestKernelNameSizeClasses(t *testing.T) {
	// Far-apart sizes of a size-specialized family use different
	// symbols; nearby sizes share one (Fig. 8 vs Fig. 5 behaviour).
	flavor := "" // find a specialized flavor deterministically
	for _, cand := range []string{"alpha", "beta", "gamma", "delta", "score", "gates"} {
		if _, ok := launchSizeClass(cand, 1024); ok {
			flavor = cand
			break
		}
	}
	if flavor == "" {
		t.Skip("no specialized flavor among candidates (hash-dependent)")
	}
	near1 := KernelName(tensor.NewElementwise(100000, 2, flavor))
	near2 := KernelName(tensor.NewElementwise(101000, 2, flavor))
	far := KernelName(tensor.NewElementwise(100000*300, 2, flavor))
	if near1 != near2 {
		t.Errorf("nearby sizes should share a kernel: %q vs %q", near1, near2)
	}
	if near1 == far {
		t.Errorf("300x size gap should change the kernel %q but did not (far %q)", near1, far)
	}
}

func TestWaveQuantizedOccupancy(t *testing.T) {
	cases := []struct {
		tiles, capacity int
		want            float64
	}{
		{128, 128, 1.0},
		{129, 128, 129.0 / 256},
		{64, 128, 0.5},
		{0, 128, 0},
		{128, 0, 0},
	}
	for _, tc := range cases {
		if got := waveQuantizedOccupancy(tc.tiles, tc.capacity); got != tc.want {
			t.Errorf("occupancy(%d,%d) = %v, want %v", tc.tiles, tc.capacity, got, tc.want)
		}
	}
}

func TestGEMMEfficiencyBounds(t *testing.T) {
	cfg := VegaFE()
	f := func(m, n, k uint16) bool {
		g := tensor.NewGEMM(int(m)+1, int(n)+1, int(k)+1, "g")
		eff := gemmEfficiency(g, cfg)
		return eff > 0 && eff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPriceTimesPositiveFinite(t *testing.T) {
	sim := mustSim(t, VegaFE())
	f := func(m, n, k uint16) bool {
		g := tensor.NewGEMM(int(m)+1, int(n)+1, int(k)+1, "g")
		inv := sim.Price(g)
		return inv.TimeUS > 0 && inv.TimeUS < 1e12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPriceMonotonicInFLOPs(t *testing.T) {
	// For compute-bound GEMMs of the same shape class, more K means
	// more time under any config.
	for _, cfg := range TableII() {
		sim := mustSim(t, cfg)
		g1 := tensor.NewGEMM(2048, 2048, 512, "g")
		g2 := tensor.NewGEMM(2048, 2048, 2048, "g")
		if sim.Price(g2).TimeUS <= sim.Price(g1).TimeUS {
			t.Errorf("config %s: deeper GEMM should take longer", cfg.Name)
		}
	}
}

func TestCountersAddScale(t *testing.T) {
	a := Counters{VALUInsts: 1, LoadBytes: 2, StoreBytes: 3, MemWriteStallCycles: 4}
	b := a
	a.Add(b)
	if a.VALUInsts != 2 || a.LoadBytes != 4 || a.StoreBytes != 6 || a.MemWriteStallCycles != 8 {
		t.Errorf("Add: %+v", a)
	}
}

func TestConfigString(t *testing.T) {
	s := VegaFE().String()
	for _, want := range []string{"#1", "1.600 GHz", "64 CUs", "16 KB", "4 MB"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
