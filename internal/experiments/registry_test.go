package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestWorkloadRegistry pins the shared model registry the CLI and the
// HTTP service both resolve names through: every trainable model
// resolves, every servable model resolves, and cnn is trainable but
// explicitly not servable.
func TestWorkloadRegistry(t *testing.T) {
	trainable := []string{"ds2", "gnmt", "transformer", "seq2seq", "cnn"}
	for _, name := range trainable {
		w, err := WorkloadByName(name, DefaultSeed)
		if err != nil {
			t.Fatalf("WorkloadByName(%q): %v", name, err)
		}
		if w.Name != name || w.Model == nil || w.Train == nil {
			t.Errorf("WorkloadByName(%q) returned incomplete workload %+v", name, w)
		}
	}
	if _, err := WorkloadByName("bert", DefaultSeed); err == nil {
		t.Error("unknown model should error")
	}

	for _, name := range trainable[:4] {
		if _, err := ServedWorkloadByName(name, DefaultSeed); err != nil {
			t.Errorf("ServedWorkloadByName(%q): %v", name, err)
		}
	}
	_, err := ServedWorkloadByName("cnn", DefaultSeed)
	if err == nil || !strings.Contains(err.Error(), "training/characterization only") {
		t.Errorf("cnn must be rejected for serving with an explanation, got %v", err)
	}
	if _, err := ServedWorkloadByName("bert", DefaultSeed); err == nil {
		t.Error("unknown served model should error")
	}
}

// TestServedModelIsOneValuePerName pins that every resolution of a
// served name hands out the same model value. The engine memoizes
// fingerprints per model value, so a fresh value per request (as
// models.NewDS2 allocates) would miss the memo on every request.
func TestServedModelIsOneValuePerName(t *testing.T) {
	a, err := ServedWorkloadByName("ds2", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServedWorkloadByName("ds2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Model != b.Model {
		t.Fatal("two ds2 resolutions returned different model values")
	}
	for name, named := range map[string]func(int64) Workload{
		"ds2": DS2Workload, "gnmt": GNMTWorkload, "transformer": TransformerWorkload, "seq2seq": Seq2SeqWorkload,
	} {
		sm, err := LookupServed(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := WorkloadByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Model != w.Model {
			t.Errorf("%s: LookupServed and WorkloadByName returned different model values", name)
		}
		if c := named(3); c.Name != name || c.Model != sm.Model {
			t.Errorf("%s: the named constructor resolved %q", name, c.Name)
		}
	}
}

// TestServedModelCorpora checks both resolutions of a registry entry:
// the named corpora carry the entry's vocabulary, and a caller's corpus
// replaces them with every other field unchanged.
func TestServedModelCorpora(t *testing.T) {
	for _, name := range []string{"ds2", "gnmt", "transformer", "seq2seq"} {
		sm, err := LookupServed(name)
		if err != nil {
			t.Fatal(err)
		}
		named := sm.Workload(5)
		if named.Train.Vocab != sm.Vocab {
			t.Errorf("%s: named training corpus vocab %d, entry says %d", name, named.Train.Vocab, sm.Vocab)
		}
		syn, err := sm.CustomCorpus([]int{3, 9, 4}, 77)
		if err != nil {
			t.Fatal(err)
		}
		if syn.Name != "custom-"+name || syn.Vocab != 77 || syn.Size() != 3 {
			t.Errorf("%s: custom corpus %+v", name, syn)
		}
		custom := sm.WorkloadWith(syn, syn, 5)
		if custom.Train != syn || custom.Eval != syn {
			t.Errorf("%s: WorkloadWith did not install the caller's corpus", name)
		}
		custom.Train, custom.Eval = named.Train, named.Eval
		if !reflect.DeepEqual(custom, named) {
			t.Errorf("%s: WorkloadWith differs from Workload beyond the corpora", name)
		}
	}
	sm, err := LookupServed("gnmt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.CustomCorpus([]int{4, 0}, 10); err == nil {
		t.Error("a non-positive sequence length should be rejected")
	}
	if _, err := LookupServed("cnn"); err == nil || !strings.Contains(err.Error(), "training/characterization only") {
		t.Errorf("cnn lookup: got %v, want the not-servable explanation", err)
	}
}
