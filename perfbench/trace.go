package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark around
// a public entry point. Parent is the enclosing span's ID (0: none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes pay only the nil checks.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named "<module>.<call>" under parent and returns
// its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfSeconds sums each module's self time: every span's duration minus
// the durations of its direct children. A span's module is its name up
// to the first dot.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		mod, _, _ := strings.Cut(s.Name, ".")
		out[mod] += self[i]
	}
	return out
}

// profiler is a running CPU profile.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns it in pprof's gzipped protobuf form.
func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// hostModules are the modules host time is attributed to; every other
// package counts as "other".
var hostModules = map[string]bool{
	"sim": true, "noc": true, "cache": true, "mem": true, "soc": true, "acc": true,
	"esp": true, "workload": true, "learn": true, "core": true, "costmodel": true,
	"scenario": true, "experiment": true, "server": true, "runtime": true,
}

// moduleOf buckets a Go function symbol by package: the repository's
// internal packages by their first path element below internal/ (so
// soc/protocol counts as soc), the Go runtime and its internal packages
// as runtime, and everything else as other.
func moduleOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "cohmeleon/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		if hostModules[mod] {
			return mod
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg" {
		return "runtime"
	}
	return "other"
}

// profileShares attributes every CPU sample of a runtime/pprof profile
// to the module of the function it was executing (its innermost frame,
// as pprof's flat column does) and returns each module's share of the
// sampled CPU time. Every module in hostModules and "other" is present.
func profileShares(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]int64{}  // function ID → name index
		locs    = map[uint64]uint64{} // location ID → innermost function ID
	)
	// Field numbers are those of pprof's profile.proto.
	err = forFields(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var ids, vals []uint64
			err := forFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					ids = appendVarints(ids, w, v, b)
				case 2:
					vals = appendVarints(vals, w, v, b)
				}
				return nil
			})
			if err != nil || len(ids) == 0 || len(vals) == 0 {
				return err
			}
			// CPU profiles carry (count, nanoseconds); weigh by the last.
			samples = append(samples, sample{leaf: ids[0], value: int64(vals[len(vals)-1])})
		case 4: // Location: id = 1, line = 4 (first line is innermost)
			var id, fn uint64
			seen := false
			err := forFields(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seen:
					seen = true
					return forFields(b, func(n, w int, v uint64, b []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fn
			return err
		case 5: // Function: id = 1, name = 2
			var id uint64
			var name int64
			err := forFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{"other": 0}
	for m := range hostModules {
		out[m] = 0
	}
	var total float64
	for _, s := range samples {
		name := ""
		if idx, ok := funcs[locs[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[moduleOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for m := range out {
		out[m] /= total
	}
	return out, nil
}

// forFields calls fn for each field of a protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func forFields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short protobuf fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad protobuf length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short protobuf fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field or packed into one length-delimited field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// writeTrace saves the traced pass's spans and CPU profile under
// .bench_build/perfbench-traces for later inspection (the profile opens
// with go tool pprof).
func writeTrace(workload string, seed uint64, tr *tracer, profile []byte) error {
	dir := filepath.Join(".bench_build", "perfbench-traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	tr.mu.Lock()
	spans, err := json.Marshal(tr.spans)
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".pprof", profile, 0o644)
}
