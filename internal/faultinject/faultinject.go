// Package faultinject is a deterministic failpoint layer for crash-safety
// testing. Production code marks the operations that can fail in the real
// world — file opens, writes, renames, trial dispatch — with named points;
// tests arm a Script that makes chosen occurrences of those points fail,
// panic, or invoke a callback (e.g. a context cancel). With no script armed
// every check is a single atomic load returning nil, so the points cost
// nothing on the paths that carry them.
//
// Determinism is the design constraint: a script fires on exact occurrence
// counts (for serially-ordered operations like file I/O under one lock) or
// on exact indices (for trial dispatch, where concurrent workers make
// occurrence order scheduling-dependent but indices are stable). RandomFaults
// derives a fault schedule from a seed, so randomized campaigns replay
// bit-identically from the seed alone.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Point names an injectable operation site. The constants below are the
// sites the experiment harness instruments; tests may define their own.
type Point string

// Failpoints instrumented by internal/experiment.
const (
	// StoreOpen guards reading a persisted run-cache entry.
	StoreOpen Point = "store.open"
	// StoreCreate guards creating the run-cache temp file.
	StoreCreate Point = "store.create"
	// StoreWrite guards encoding/writing the run-cache temp file.
	StoreWrite Point = "store.write"
	// StoreRename guards the atomic rename publishing a run-cache entry.
	StoreRename Point = "store.rename"
	// CkptOpen guards reading a checkpoint cell.
	CkptOpen Point = "ckpt.open"
	// CkptCreate guards creating a checkpoint temp file.
	CkptCreate Point = "ckpt.create"
	// CkptWrite guards encoding/writing a checkpoint temp file.
	CkptWrite Point = "ckpt.write"
	// CkptRename guards the atomic rename publishing a checkpoint cell.
	CkptRename Point = "ckpt.rename"
	// Trial fires at the dispatch of every worker-pool trial, keyed by
	// the trial index (CheckIndex), not by occurrence order.
	Trial Point = "trial"
	// CellAttempt fires at every attempt of a grid cell running under a
	// retry policy. It is occurrence-counted, so a rule can fail attempt
	// k of a cell and let the retried attempt through — the shape real
	// transient infrastructure failures have.
	CellAttempt Point = "cell.attempt"
	// ServeAdmit guards job admission in the HTTP job server (the
	// HTTP-layer failpoint: an injected fault turns one admission into a
	// 503 without touching the job registry).
	ServeAdmit Point = "serve.admit"
	// ManifestOpen guards reading a persisted job manifest.
	ManifestOpen Point = "manifest.open"
	// ManifestCreate guards creating a job-manifest temp file.
	ManifestCreate Point = "manifest.create"
	// ManifestWrite guards encoding/writing a job-manifest temp file.
	ManifestWrite Point = "manifest.write"
	// ManifestRename guards the atomic rename publishing a job manifest.
	ManifestRename Point = "manifest.rename"
	// LeaseAcquire guards the exclusive publish that claims a grid cell's
	// lease in shared (multi-process) mode.
	LeaseAcquire Point = "lease.acquire"
	// LeaseRenew guards a heartbeat renewal of a held lease.
	LeaseRenew Point = "lease.renew"
	// LeaseRelease guards deleting a lease after its cell published; an
	// injected fault orphans the lease, exactly like a crash between
	// publish and release would.
	LeaseRelease Point = "lease.release"
	// LeaseReclaim guards the rename that takes a stale lease away from
	// a dead holder.
	LeaseReclaim Point = "lease.reclaim"
)

// ErrTransient marks injected faults that model recoverable
// infrastructure failures (a flaky disk, a brief resource squeeze).
// Retry layers treat errors wrapping it as retryable; every other
// injected error stays fail-fast, like a deterministic trial error.
var ErrTransient = errors.New("faultinject: transient fault")

// Action is what a matched rule does, checked in field order: a non-nil
// Panic value is raised, else a non-nil Call runs (and the check passes),
// else Err is returned (nil Err simply counts the hit).
type Action struct {
	Err   error
	Panic interface{}
	Call  func()
}

// Rule arms one action at one point. For occurrence-counted points N is
// the 1-based occurrence that fires; for index-keyed points (Trial) N is
// the 0-based index.
type Rule struct {
	Point Point
	N     int
	Action
}

// Fail returns a rule failing the Nth occurrence of p with a canned error.
func Fail(p Point, n int) Rule {
	return Rule{Point: p, N: n, Action: Action{Err: fmt.Errorf("faultinject: %s occurrence %d", p, n)}}
}

// FailTransient returns a rule failing the Nth occurrence of p with an
// error wrapping ErrTransient, so retry layers classify it retryable.
func FailTransient(p Point, n int) Rule {
	return Rule{Point: p, N: n, Action: Action{Err: fmt.Errorf("faultinject: %s occurrence %d: %w", p, n, ErrTransient)}}
}

// Script is an armed set of rules plus the per-point occurrence counters
// and trigger log. A Script is single-use: arming it resets nothing, so
// build a fresh one per campaign.
type Script struct {
	mu       sync.Mutex
	rules    map[Point][]Rule
	seen     map[Point]int // occurrences observed so far
	trigs    map[Point]int // rules actually fired
	anyTrial bool          // fast pre-filter for CheckIndex
}

// NewScript builds a script from rules.
func NewScript(rules ...Rule) *Script {
	s := &Script{
		rules: make(map[Point][]Rule),
		seen:  make(map[Point]int),
		trigs: make(map[Point]int),
	}
	for _, r := range rules {
		s.rules[r.Point] = append(s.rules[r.Point], r)
		if r.Point == Trial {
			s.anyTrial = true
		}
	}
	return s
}

// RandomFaults derives a deterministic fault schedule from a seed: count
// distinct error-rules spread over the given points at occurrences in
// [1, maxOcc]. Duplicate (point, occurrence) draws are redrawn — only the
// first rule matching an occurrence ever fires, so a duplicate would
// silently shrink the campaign below count. count is capped at the
// points×maxOcc distinct pairs available. The same seed always yields
// the same schedule.
func RandomFaults(seed int64, points []Point, maxOcc, count int) *Script {
	rng := rand.New(rand.NewSource(seed))
	if max := len(points) * maxOcc; count > max {
		count = max
	}
	type pair struct {
		p Point
		n int
	}
	drawn := make(map[pair]bool, count)
	var rules []Rule
	for len(rules) < count {
		p := points[rng.Intn(len(points))]
		n := 1 + rng.Intn(maxOcc)
		if drawn[pair{p, n}] {
			continue
		}
		drawn[pair{p, n}] = true
		rules = append(rules, Fail(p, n))
	}
	// Stable rule order for reproducible trigger logs.
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Point != rules[j].Point {
			return rules[i].Point < rules[j].Point
		}
		return rules[i].N < rules[j].N
	})
	return NewScript(rules...)
}

// Triggered reports how many rules fired at p so far.
func (s *Script) Triggered(p Point) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trigs[p]
}

// Occurrences reports how many times p was checked so far.
func (s *Script) Occurrences(p Point) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[p]
}

// active is the armed script; nil means injection is off and every check
// short-circuits on one atomic load.
var active atomic.Pointer[Script]

// Enable arms s process-wide. Passing nil disarms (same as Disable).
func Enable(s *Script) { active.Store(s) }

// Disable disarms injection.
func Disable() { active.Store(nil) }

// Enabled reports whether a script is armed.
func Enabled() bool { return active.Load() != nil }

// Check consults the armed script for the next occurrence of p. It
// returns the injected error (or panics / runs the callback) when a rule
// matches, nil otherwise — including when injection is off.
func Check(p Point) error {
	s := active.Load()
	if s == nil {
		return nil
	}
	return s.check(p)
}

func (s *Script) check(p Point) error {
	s.mu.Lock()
	s.seen[p]++
	occ := s.seen[p]
	var hit *Rule
	for i := range s.rules[p] {
		if s.rules[p][i].N == occ {
			hit = &s.rules[p][i]
			break
		}
	}
	if hit != nil {
		s.trigs[p]++
	}
	s.mu.Unlock()
	return fire(hit)
}

// CheckIndex consults the armed script for index idx of the index-keyed
// point p (used at trial boundaries, where indices are stable under any
// worker schedule while occurrence order is not).
func CheckIndex(p Point, idx int) error {
	s := active.Load()
	if s == nil {
		return nil
	}
	if p == Trial && !s.anyTrial {
		return nil
	}
	s.mu.Lock()
	s.seen[p]++
	var hit *Rule
	for i := range s.rules[p] {
		if s.rules[p][i].N == idx {
			hit = &s.rules[p][i]
			break
		}
	}
	if hit != nil {
		s.trigs[p]++
	}
	s.mu.Unlock()
	return fire(hit)
}

// fire executes a matched rule's action (hit may be nil: no-op). It runs
// outside the script lock so a Call action may re-enter the package.
func fire(hit *Rule) error {
	if hit == nil {
		return nil
	}
	if hit.Panic != nil {
		panic(hit.Panic)
	}
	if hit.Call != nil {
		hit.Call()
		return nil
	}
	return hit.Err
}
