package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"seqpoint/internal/server"
	"seqpoint/internal/trainer"
)

// httpItem is one request's outcome over HTTP.
type httpItem struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

// ok reports whether the request succeeded: a 2xx whose body decodes
// strictly into the endpoint's typed response.
func (it httpItem) ok() bool { return it.err == nil && it.status/100 == 2 }

// drive replays the list closed-loop over conns keep-alive connections
// from this one process: each connection sends its next request only
// after the previous response's last byte arrived, taking requests in
// list order. Latency is send to last body byte. It returns once every
// request has completed, with the measured phase's wall time.
func drive(base string, list List, conns int) ([]httpItem, time.Duration) {
	n := len(list.Requests)
	items := make([]httpItem, n)
	clients := make([]*http.Client, conns)
	for w := range clients {
		// One transport per connection pins each worker to its own
		// keep-alive connection, opened before the clock starts.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		clients[w] = &http.Client{Transport: tr}
		if resp, err := clients[w].Get(base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	defer func() {
		for _, c := range clients {
			c.Transport.(*http.Transport).CloseIdleConnections()
		}
	}()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				items[i] = send(c, base, list.Requests[i])
			}
		}(clients[w])
	}
	wg.Wait()
	return items, time.Since(start)
}

func send(c *http.Client, base string, req Request) httpItem {
	t0 := time.Now()
	resp, err := c.Post(base+req.Path, "application/json", bytes.NewReader(req.Body))
	if err != nil {
		return httpItem{err: err, latency: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return httpItem{status: resp.StatusCode, body: body, latency: time.Since(t0), err: err}
}

// checkAll decodes every 2xx body after the measured phase, so checking
// costs the client no CPU while the daemon is being timed.
func checkAll(list List, items []httpItem) {
	for i := range items {
		if it := &items[i]; it.err == nil && it.status/100 == 2 {
			it.err = checkResponse(list.Requests[i].Path, it.body)
		}
	}
}

// checkResponse decodes a 2xx body strictly into the endpoint's typed
// server response; a sweep must also carry no per-task error.
func checkResponse(path string, body []byte) error {
	var dst any
	switch path {
	case "/v1/simulate":
		dst = new(trainer.RunSummary)
	case "/v1/seqpoint":
		dst = new(server.SeqPointResponse)
	case "/v1/sweep":
		dst = new(server.SweepResponse)
	case "/v1/serve":
		dst = new(server.ServeResponse)
	case "/v1/fleet":
		dst = new(server.FleetResponse)
	case "/v1/plan":
		dst = new(server.PlanResponse)
	default:
		return fmt.Errorf("no response type for %s", path)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%s response does not decode: %w", path, err)
	}
	if sw, ok := dst.(*server.SweepResponse); ok {
		for _, r := range sw.Results {
			if r.Error != "" || r.Summary == nil {
				return fmt.Errorf("sweep task %q failed: %s", r.Name, r.Error)
			}
		}
	}
	return nil
}

// bodyDigest is the SHA-256 over response bodies in request order.
func bodyDigest(bodies func(i int) []byte, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		b := bodies(i)
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
