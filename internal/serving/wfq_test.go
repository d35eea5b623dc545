package serving

import (
	"bytes"
	"math"
	"testing"

	"seqpoint/internal/dataset"
)

// tenantTrace builds a validated trace directly from (arrival, SL,
// tenant) triples.
func tenantTrace(t *testing.T, arrivals []float64, sls []int, tenants []string) Trace {
	t.Helper()
	reqs := make([]Request, len(arrivals))
	for i := range reqs {
		reqs[i] = Request{ID: i, ArrivalUS: arrivals[i], SeqLen: sls[i], Tenant: tenants[i]}
	}
	tr := Trace{Name: "tenant-test", Requests: reqs}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWFQValidation(t *testing.T) {
	if _, err := NewWFQBatch(0, 100); err == nil {
		t.Error("zero batch size should error")
	}
	if _, err := NewWFQBatch(4, -1); err == nil {
		t.Error("negative timeout should error")
	}
	if _, err := NewWFQBatch(4, math.Inf(1)); err == nil {
		t.Error("infinite timeout should error")
	}
	p, err := NewWFQBatch(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxBatch() != 4 {
		t.Errorf("MaxBatch() = %d, want 4", p.MaxBatch())
	}
	if p.Name() != "wfq(4,100us)" {
		t.Errorf("Name() = %q", p.Name())
	}
}

// TestWFQDecidePicksRoundRobin checks the fair pick directly: with a
// bulk clump ahead of two interactive requests, each queued tenant gets
// a slot per round instead of the clump taking the whole FIFO prefix.
func TestWFQDecidePicksRoundRobin(t *testing.T) {
	p, err := NewWFQBatch(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	queue := []Request{
		{ID: 0, ArrivalUS: 0, SeqLen: 8, Tenant: "bulk-0"},
		{ID: 1, ArrivalUS: 0, SeqLen: 8, Tenant: "bulk-0"},
		{ID: 2, ArrivalUS: 0, SeqLen: 8, Tenant: "bulk-0"},
		{ID: 3, ArrivalUS: 0, SeqLen: 8, Tenant: "bulk-0"},
		{ID: 4, ArrivalUS: 5, SeqLen: 4, Tenant: "chat-0"},
		{ID: 5, ArrivalUS: 6, SeqLen: 4, Tenant: "chat-1"},
	}
	d := p.Decide(queue, 10, 2000)
	if !d.Dispatch {
		t.Fatalf("full queue did not dispatch: %+v", d)
	}
	// Round-robin over first-occurrence tenant order [bulk-0, chat-0,
	// chat-1]: round 0 takes indices 0, 4, 5; round 1 takes 1.
	want := []int{0, 4, 5, 1}
	if len(d.Pick) != len(want) {
		t.Fatalf("pick = %v, want %v", d.Pick, want)
	}
	for i, idx := range want {
		if d.Pick[i] != idx {
			t.Fatalf("pick = %v, want %v", d.Pick, want)
		}
	}
}

// TestWFQDecideAllocs pins that a wfq dispatch allocates only its
// returned pick, as a length-aware one does: the per-tenant chains
// and the tenant map live in pooled scratch, whether the window holds
// four interleaved tenants or one untenanted run.
func TestWFQDecideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	wfq, err := NewWFQBatch(8, 5e4)
	if err != nil {
		t.Fatal(err)
	}
	length, err := NewLengthAware(8)
	if err != nil {
		t.Fatal(err)
	}
	tenanted := make([]Request, 64)
	untenanted := make([]Request, 64)
	for i := range tenanted {
		tenanted[i] = Request{ID: i, SeqLen: 4 + i%48, Tenant: []string{"a", "b", "c", "d"}[i%4]}
		untenanted[i] = Request{ID: i, SeqLen: 4 + i%48}
	}
	for _, c := range []struct {
		name   string
		policy Policy
		queue  []Request
	}{
		{"wfq, 4 tenants", wfq, tenanted},
		{"wfq, untenanted", wfq, untenanted},
		{"length", length, tenanted},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if d := c.policy.Decide(c.queue, 0, 1); !d.Dispatch || len(d.Pick) != 8 {
				t.Fatalf("%s: decision %+v, want a dispatch of 8", c.name, d)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: %v allocations per Decide, want 1 (the pick)", c.name, allocs)
		}
	}
}

// TestWFQGatesLikeDynamic: under-full queues wait for the oldest
// request's timeout, dispatch at the deadline, and always dispatch at
// trace drain.
func TestWFQGatesLikeDynamic(t *testing.T) {
	p, err := NewWFQBatch(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	queue := []Request{{ID: 0, ArrivalUS: 50, SeqLen: 8, Tenant: "a"}}
	if d := p.Decide(queue, 60, 500); d.Dispatch || d.WaitUntilUS != 150 {
		t.Errorf("before deadline: %+v, want wait until 150", d)
	}
	if d := p.Decide(queue, 150, 500); !d.Dispatch || len(d.Pick) != 1 {
		t.Errorf("at deadline: %+v, want dispatch of 1", d)
	}
	if d := p.Decide(queue, 60, math.Inf(1)); !d.Dispatch {
		t.Errorf("at drain: %+v, want dispatch", d)
	}
}

// TestWFQUntenantedEqualsDynamic is the strict-generalization witness:
// on a single-tenant trace the fair pick degenerates to the FIFO
// prefix, so a wfq run serializes byte-identically to the dynamic
// policy apart from the policy label.
func TestWFQUntenantedEqualsDynamic(t *testing.T) {
	tr, err := PoissonTrace(dataset.IWSLT15(1), 2000, 3000, 21)
	if err != nil {
		t.Fatal(err)
	}
	wfq, err := NewWFQBatch(8, 500)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicBatch(8, 500)
	if err != nil {
		t.Fatal(err)
	}
	a := simulate(t, tr, wfq)
	b := simulate(t, tr, dyn)
	sa, sb := a.Summary(), b.Summary()
	sa.Policy = sb.Policy // the label is the one allowed difference
	ba, err := sa.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := sb.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Errorf("wfq on an untenanted trace diverged from dynamic:\n%s\nvs\n%s", ba, bb)
	}
	if sa.PerTenant != nil {
		t.Errorf("untenanted run emitted per-tenant stats: %+v", sa.PerTenant)
	}
}

// TestWFQUnstarvesInteractive is the policy-level starvation story:
// bulk clumps ahead of sparse interactive requests under full-batch
// FIFO gating force the interactive tenant to wait out whole clumps;
// the fair pick gives it a slot in the next batch.
func TestWFQUnstarvesInteractive(t *testing.T) {
	// Every 1000µs a bulk tenant dumps 8 requests; 5µs later one
	// interactive request arrives. fixed(8) serves each clump as one
	// batch, so the interactive request always waits for the next full
	// batch; wfq(8) folds it into the very next dispatch.
	var (
		arrivals []float64
		sls      []int
		tenants  []string
	)
	for i := 0; i < 50; i++ {
		base := float64(i) * 1000
		for k := 0; k < 8; k++ {
			arrivals = append(arrivals, base)
			sls = append(sls, 8)
			tenants = append(tenants, "bulk-0")
		}
		arrivals = append(arrivals, base+5)
		sls = append(sls, 4)
		tenants = append(tenants, "chat-0")
	}
	tr := tenantTrace(t, arrivals, sls, tenants)

	fixed, err := NewFixedBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	wfq, err := NewWFQBatch(8, 500)
	if err != nil {
		t.Fatal(err)
	}
	sFIFO := simulate(t, tr, fixed).Summary()
	sWFQ := simulate(t, tr, wfq).Summary()

	chat := func(s Summary) TenantStats {
		for _, ts := range s.PerTenant {
			if ts.Tenant == "chat-0" {
				return ts
			}
		}
		t.Fatalf("no chat-0 roll-up in %+v", s.PerTenant)
		return TenantStats{}
	}
	if got := chat(sWFQ).P99LatencyUS; got >= chat(sFIFO).P99LatencyUS {
		t.Errorf("wfq chat p99 %v not better than FIFO %v", got, chat(sFIFO).P99LatencyUS)
	}
	// Conservation: every tenant's requests are all accounted for.
	var total int
	for _, ts := range sWFQ.PerTenant {
		if ts.Requests != ts.Served+ts.Rejected {
			t.Errorf("tenant %s: %d != %d served + %d rejected", ts.Tenant, ts.Requests, ts.Served, ts.Rejected)
		}
		total += ts.Requests
	}
	if total != len(tr.Requests) {
		t.Errorf("per-tenant requests sum %d, want %d", total, len(tr.Requests))
	}
}
