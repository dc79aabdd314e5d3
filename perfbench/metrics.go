package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metrics maps a metric name to its value; units come from the catalog.
type metrics map[string]float64

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// catalog holds the metric names and units BENCHMARK.json declares, so
// the printed result and the declaration cannot drift apart.
type catalog struct {
	endToEnd map[string]string
	perLayer map[string]string
}

func loadCatalog(path string) (catalog, error) {
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return catalog{}, fmt.Errorf("metric catalog: %w", err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return catalog{}, fmt.Errorf("metric catalog %s: %w", path, err)
	}
	c := catalog{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range decl.EndToEnd {
		c.endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		c.perLayer[m.Name] = m.Unit
	}
	return c, nil
}

// newResult attaches units from decl to m. A metric decl does not name
// is an error. A declared metric m lacks is an error when required (the
// end-to-end set); otherwise it reads 0, meaning the workload does not
// reach that layer.
func newResult(m metrics, decl map[string]string, required bool, attempted, failed int) (*result, error) {
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for name, v := range m {
		unit, ok := decl[name]
		if !ok {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", name, v)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	for name, unit := range decl {
		if _, ok := res.Metrics[name]; ok {
			continue
		}
		if required {
			return nil, fmt.Errorf("metric %q was not measured", name)
		}
		res.Metrics[name] = metricValue{Unit: unit}
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations for quantile.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time. Throughput is
// measured against it rather than wall time: on a shared virtual machine
// the wall clock also counts the time other tenants hold the CPU (steal),
// which swings a run's wall-clock throughput by 20% or more.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
