package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"seqpoint/internal/atomicfile"
)

// Versioned JSON-lines trace file format, following the engine
// snapshot's discipline (internal/engine/persist.go): a magic+version
// header, deterministic output, and whole-file validation with typed
// errors before anything is returned — a torn, truncated or
// wrong-version file is rejected wholesale, never partially replayed.
//
// Layout: line 1 is the header object, then one request object per
// line in arrival order. encoding/json's shortest-round-trip float
// formatting makes the write→read→replay loop byte-exact: a replayed
// trace reproduces the in-memory run's summary bytes.

// TraceVersion is the trace file format version. Decoders reject any
// other version outright: silently reinterpreting an old file risks
// exactly the corrupted-arrival replays ErrBadTrace exists to stop.
const TraceVersion = 1

// traceMagic guards against feeding arbitrary JSON-lines files in.
const traceMagic = "seqpoint-workload-trace"

// traceHeader is the first line of a trace file.
type traceHeader struct {
	Magic    string `json:"magic"`
	Version  int    `json:"version"`
	Name     string `json:"name,omitempty"`
	Requests int    `json:"requests"`
}

// traceLine is one request line. Arrival is always emitted (zero is a
// meaningful burst arrival); the optional fields elide their zero
// values so single-tenant compute-only traces stay compact.
type traceLine struct {
	ID          int     `json:"id"`
	ArrivalUS   float64 `json:"arrival_us"`
	SeqLen      int     `json:"seqlen"`
	DecodeSteps int     `json:"decode_steps,omitempty"`
	Tenant      string  `json:"tenant,omitempty"`
}

// WriteTrace serializes the trace to w in the versioned JSON-lines
// format. The trace is validated first — a malformed trace must not
// be recordable — and the output is deterministic byte-for-byte.
func WriteTrace(w io.Writer, t Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{
		Magic:    traceMagic,
		Version:  TraceVersion,
		Name:     t.Name,
		Requests: len(t.Requests),
	}); err != nil {
		return fmt.Errorf("workload: writing trace header: %w", err)
	}
	for _, r := range t.Requests {
		if err := enc.Encode(traceLine{
			ID:          r.ID,
			ArrivalUS:   r.ArrivalUS,
			SeqLen:      r.SeqLen,
			DecodeSteps: r.DecodeSteps,
			Tenant:      r.Tenant,
		}); err != nil {
			return fmt.Errorf("workload: writing trace request %d: %w", r.ID, err)
		}
	}
	return bw.Flush()
}

// ReadTrace decodes a trace from r, validating the whole file before
// returning: header magic and version, per-line shape, the declared
// request count, and full Trace.Validate (so non-monotone or negative
// arrivals fail as ErrBadTrace, never replay). Every failure wraps
// ErrBadTrace.
func ReadTrace(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Trace{}, fmt.Errorf("%w: reading header: %v", ErrBadTrace, err)
		}
		return Trace{}, fmt.Errorf("%w: empty trace file", ErrBadTrace)
	}
	var hdr traceHeader
	if err := strictUnmarshal(sc.Bytes(), &hdr); err != nil {
		return Trace{}, fmt.Errorf("%w: malformed header: %v", ErrBadTrace, err)
	}
	if hdr.Magic != traceMagic {
		return Trace{}, fmt.Errorf("%w: not a trace file (magic %q)", ErrBadTrace, hdr.Magic)
	}
	if hdr.Version != TraceVersion {
		return Trace{}, fmt.Errorf("%w: version %d, this build reads version %d", ErrBadTrace, hdr.Version, TraceVersion)
	}
	if hdr.Requests < 0 {
		return Trace{}, fmt.Errorf("%w: header declares %d requests", ErrBadTrace, hdr.Requests)
	}
	reqs := make([]Request, 0, hdr.Requests)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var tl traceLine
		if err := strictUnmarshal(line, &tl); err != nil {
			return Trace{}, fmt.Errorf("%w: malformed request line %d: %v", ErrBadTrace, len(reqs), err)
		}
		reqs = append(reqs, Request{
			ID:          tl.ID,
			ArrivalUS:   tl.ArrivalUS,
			SeqLen:      tl.SeqLen,
			DecodeSteps: tl.DecodeSteps,
			Tenant:      tl.Tenant,
		})
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("%w: reading requests: %v", ErrBadTrace, err)
	}
	if len(reqs) != hdr.Requests {
		return Trace{}, fmt.Errorf("%w: header declares %d requests but file holds %d (truncated?)",
			ErrBadTrace, hdr.Requests, len(reqs))
	}
	t := Trace{Name: hdr.Name, Requests: reqs}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

// strictUnmarshal decodes one JSON object rejecting unknown fields, so
// typos in hand-edited trace files fail loudly instead of silently
// zeroing a column.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// SaveTrace writes the trace to path atomically: serialize to a
// sibling temp file, fsync it, then rename into place, so a crash
// mid-write never leaves a torn trace where a valid one was expected.
func SaveTrace(path string, t Trace) error {
	if err := atomicfile.Write(path, func(w io.Writer) error { return WriteTrace(w, t) }); err != nil {
		return fmt.Errorf("workload: saving trace: %w", err)
	}
	return nil
}

// LoadTrace reads and fully validates the trace at path.
func LoadTrace(path string) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, fmt.Errorf("workload: loading trace: %w", err)
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return Trace{}, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
