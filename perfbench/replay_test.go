package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"seqpoint/internal/engine"
	"seqpoint/internal/server"
)

// primedEngine returns an engine holding the whole warm key space, built
// by serving the cover list through a real handler, as the benchmark's
// snapshot is.
func primedEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New()
	h := server.New(server.Options{Engine: eng})
	cover, err := coverList()
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range cover.Requests {
		if rec := serveHTTP(h, req); rec.Code != http.StatusOK {
			t.Fatalf("cover request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	return eng
}

func serveHTTP(h http.Handler, req Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body)))
	return rec
}

// cloneEngine copies an engine's cache through a snapshot, the way the
// daemon and the replay each restore it.
func cloneEngine(t *testing.T, eng *engine.Engine) *engine.Engine {
	t.Helper()
	var buf bytes.Buffer
	if _, err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	out := engine.New()
	if _, err := out.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayMatchesHandlers checks, on short lists of every workload,
// that the in-process replay produces the handlers' exact response bytes
// with and without spans, and that each list hits and misses as
// designed.
func TestReplayMatchesHandlers(t *testing.T) {
	if testing.Short() {
		t.Skip("primes the warm key space")
	}
	base := primedEngine(t)
	for _, wl := range workloads {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", wl, seed), func(t *testing.T) {
				list, err := generateN(wl, seed, 24)
				if err != nil {
					t.Fatal(err)
				}
				daemonEng := cloneEngine(t, base)
				h := server.New(server.Options{Engine: daemonEng})
				want := make([][]byte, len(list.Requests))
				before := daemonEng.Stats()
				for i, req := range list.Requests {
					rec := serveHTTP(h, req)
					if rec.Code != http.StatusOK {
						t.Fatalf("request %d %s: status %d: %s", i, req.Path, rec.Code, rec.Body)
					}
					if err := checkResponse(req.Path, rec.Body.Bytes()); err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					want[i] = rec.Body.Bytes()
				}
				if got := daemonEng.Stats().Misses - before.Misses; got != list.Misses {
					t.Errorf("handlers made %d misses, list designed %d", got, list.Misses)
				}
				if wl == wlWhatifCold && list.Misses < 10*int64(len(list.Requests)) {
					t.Errorf("whatif-cold list designs %d misses over %d requests, want at least ten each", list.Misses, len(list.Requests))
				}
				for _, traced := range []bool{false, true} {
					run := replayList(cloneEngine(t, base), list, 2, traced)
					for i, it := range run.items {
						if it.err != nil {
							t.Fatalf("traced=%v request %d: %v", traced, i, it.err)
						}
						if !bytes.Equal(it.body, want[i]) {
							t.Fatalf("traced=%v request %d %s: replay bytes differ from the handler's", traced, i, list.Requests[i].Path)
						}
					}
					if run.engine.Misses != list.Misses {
						t.Errorf("traced=%v replay made %d misses, list designed %d", traced, run.engine.Misses, list.Misses)
					}
					if traced && len(run.spans) == 0 {
						t.Error("traced replay recorded no spans")
					}
				}
			})
		}
	}
}
