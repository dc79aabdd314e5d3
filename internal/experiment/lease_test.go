package experiment

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cohmeleon/internal/faultinject"
)

// leaseTestTable opens a lease table for a fake grid under a fresh
// cache dir, with a TTL long enough that nothing goes stale by accident.
func leaseTestTable(t *testing.T, worker string, ttl time.Duration) *leaseTable {
	t.Helper()
	lt, err := openLeaseTable(runCacheDirectory(), "test-v1-abc", Options{
		WorkerID: worker, LeaseTTL: ttl, LeaseHeartbeat: ttl / 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

func leaseTestSetup(t *testing.T) {
	t.Helper()
	memoTestSetup(t)
	t.Cleanup(faultinject.Disable)
	if err := SetRunCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseAcquireIsExclusive: of any number of workers racing to claim
// one cell, exactly one wins, and the losers count the contention.
func TestLeaseAcquireIsExclusive(t *testing.T) {
	leaseTestSetup(t)
	const racers = 8
	tables := make([]*leaseTable, racers)
	for w := range tables {
		tables[w] = leaseTestTable(t, string(rune('a'+w)), time.Hour)
	}
	var wg sync.WaitGroup
	wins := make([]bool, racers)
	for w := range tables {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, claimed, err := tables[w].claim(0)
			if err != nil {
				t.Errorf("worker %d: claim: %v", w, err)
			}
			wins[w] = claimed
		}(w)
	}
	wg.Wait()
	won := 0
	for _, c := range wins {
		if c {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("claims won = %d, want exactly 1", won)
	}
	st := GetLeaseStats()
	if st.Acquired != 1 {
		t.Errorf("Acquired = %d, want 1", st.Acquired)
	}
	// Losers either lost the link race (counted Contended) or read the
	// winner's lease before even trying (skipped, uncounted); both are
	// losses, neither is an acquisition.
	if st.Contended > racers-1 {
		t.Errorf("Contended = %d, want ≤ %d", st.Contended, racers-1)
	}
	// Force the deterministic contention shape: an acquire that finds an
	// existing lease file is a counted race loss, never an error.
	before := st.Contended
	if _, claimed, err := tables[0].acquire(0, 99); claimed || err != nil {
		t.Fatalf("acquire over existing lease = (%v, %v), want (false, nil)", claimed, err)
	}
	if got := GetLeaseStats().Contended; got != before+1 {
		t.Errorf("Contended after direct race loss = %d, want %d", got, before+1)
	}
}

// TestLeaseStaleReclaim: a lease whose renewal counter stalls for a TTL
// of the observer's clock is expired and reclaimed exactly once, and
// the re-claim carries a bumped fencing token.
func TestLeaseStaleReclaim(t *testing.T) {
	leaseTestSetup(t)
	dead := leaseTestTable(t, "dead", time.Hour)
	tok, claimed, err := dead.claim(0)
	if err != nil || !claimed {
		t.Fatalf("dead claim = (%v, %v), want (true, nil)", claimed, err)
	}
	if tok != 1 {
		t.Fatalf("first token = %d, want 1", tok)
	}
	// The survivor's TTL is short; the dead holder never renews.
	surv := leaseTestTable(t, "survivor", 50*time.Millisecond)
	if _, claimed, _ := surv.claim(0); claimed {
		t.Fatal("survivor claimed a lease it had only just first observed")
	}
	deadline := time.Now().Add(5 * time.Second)
	var tok2 uint64
	for {
		if time.Now().After(deadline) {
			t.Fatal("lease never went stale")
		}
		time.Sleep(10 * time.Millisecond)
		var c bool
		tok2, c, err = surv.claim(0)
		if err != nil {
			t.Fatal(err)
		}
		if c {
			break
		}
	}
	if tok2 != tok+1 {
		t.Errorf("reclaimed token = %d, want %d (fencing bump)", tok2, tok+1)
	}
	st := GetLeaseStats()
	if st.Expired < 1 || st.Reclaimed != 1 {
		t.Errorf("Expired = %d (want ≥ 1), Reclaimed = %d (want 1)", st.Expired, st.Reclaimed)
	}
	// The reclaim left exactly one tokened marker as the audit trail.
	marks, _ := filepath.Glob(filepath.Join(surv.dir, "*.reclaimed-*"))
	if len(marks) != 1 {
		t.Errorf("reclaim markers = %v, want exactly one", marks)
	}
}

// TestLeaseReclaimRaceSingleWinner: racing reclaimers of the same stale
// lease rename to the same destination, so exactly one wins.
func TestLeaseReclaimRaceSingleWinner(t *testing.T) {
	leaseTestSetup(t)
	holder := leaseTestTable(t, "dead", time.Hour)
	if _, claimed, err := holder.claim(0); !claimed || err != nil {
		t.Fatalf("setup claim = (%v, %v)", claimed, err)
	}
	img, st := holder.read(0)
	if st != leaseHeld {
		t.Fatalf("read state = %v, want held", st)
	}
	const racers = 8
	var wg sync.WaitGroup
	wins := make([]bool, racers)
	for w := 0; w < racers; w++ {
		lt := leaseTestTable(t, "racer", time.Hour)
		wg.Add(1)
		go func(w int, lt *leaseTable) {
			defer wg.Done()
			wins[w] = lt.reclaim(0, img)
		}(w, lt)
	}
	wg.Wait()
	won := 0
	for _, c := range wins {
		if c {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("reclaims won = %d, want exactly 1", won)
	}
	if st := GetLeaseStats(); st.Reclaimed != 1 {
		t.Errorf("Reclaimed = %d, want 1", st.Reclaimed)
	}
}

// TestLeaseTornFileQuarantined: a torn lease (kill -9 mid-write) is
// quarantined through the envelope path and the cell is immediately
// claimable again.
func TestLeaseTornFileQuarantined(t *testing.T) {
	leaseTestSetup(t)
	lt := leaseTestTable(t, "w", time.Hour)
	if err := os.WriteFile(lt.path(3), []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	tok, claimed, err := lt.claim(3)
	if err != nil || !claimed {
		t.Fatalf("claim over torn lease = (%v, %v), want (true, nil)", claimed, err)
	}
	if tok != 1 {
		t.Errorf("token = %d, want 1", tok)
	}
	if _, err := os.Stat(lt.path(3) + ".corrupt"); err != nil {
		t.Errorf("torn lease not quarantined: %v", err)
	}
	if st := GetRunCacheStats(); st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestLeaseRenewAndLoss: renewals advance the heartbeat counter; a
// holder whose lease was reclaimed observes the loss on its next renew
// and stops (errLeaseLost), counting it.
func TestLeaseRenewAndLoss(t *testing.T) {
	leaseTestSetup(t)
	lt := leaseTestTable(t, "w", time.Hour)
	tok, claimed, err := lt.claim(0)
	if !claimed || err != nil {
		t.Fatalf("claim = (%v, %v)", claimed, err)
	}
	for i := 0; i < 3; i++ {
		if err := lt.renew(0, tok); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	img, st := lt.read(0)
	if st != leaseHeld || img.Renewals != 3 {
		t.Fatalf("after 3 renewals: state %v, renewals %d", st, img.Renewals)
	}
	// A peer reclaims it out from under the holder.
	peer := leaseTestTable(t, "peer", time.Hour)
	if !peer.reclaim(0, img) {
		t.Fatal("peer reclaim failed")
	}
	if err := lt.renew(0, tok); err != errLeaseLost {
		t.Fatalf("renew after reclaim = %v, want errLeaseLost", err)
	}
	stats := GetLeaseStats()
	if stats.Renewed != 3 || stats.Lost != 1 {
		t.Errorf("Renewed = %d (want 3), Lost = %d (want 1)", stats.Renewed, stats.Lost)
	}
}

// TestLeaseReleaseFaultOrphans: an injected fault at release leaves the
// lease behind (as a crash between publish and release would); the fsck
// sweeps it once the cell has published.
func TestLeaseReleaseFaultOrphans(t *testing.T) {
	leaseTestSetup(t)
	lt := leaseTestTable(t, "w", time.Hour)
	tok, claimed, err := lt.claim(0)
	if !claimed || err != nil {
		t.Fatalf("claim = (%v, %v)", claimed, err)
	}
	faultinject.Enable(faultinject.NewScript(faultinject.Fail(faultinject.LeaseRelease, 1)))
	lt.release(0, tok)
	faultinject.Disable()
	if _, st := lt.read(0); st != leaseHeld {
		t.Fatalf("lease state after faulted release = %v, want still held", st)
	}
	// Publish the cell the lease guards, then fsck: the orphan is swept.
	ckDir := filepath.Join(checkpointRoot(runCacheDirectory()), "test-v1-abc")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := sealBlob(checkpointVersion, &struct{ X int }{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckDir, "cell-000000.gob"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := VerifyRunCache(runCacheDirectory())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || res.LeasesSwept != 1 {
		t.Fatalf("fsck = %v; want clean with 1 published-cell lease swept", res)
	}
	if _, st := lt.read(0); st != leaseAbsent {
		t.Errorf("lease survives the sweep")
	}
}

// TestVerifySweepsOrphanedTempFiles: temp files left by killed writers
// are swept and counted apart from quarantines.
func TestVerifySweepsOrphanedTempFiles(t *testing.T) {
	leaseTestSetup(t)
	dir := runCacheDirectory()
	ckDir := filepath.Join(checkpointRoot(dir), "test-v1-abc")
	lsDir := filepath.Join(leaseRoot(dir), "test-v1-abc")
	for _, d := range []string{ckDir, lsDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{
		filepath.Join(dir, ".blob-1234-567.tmp"),
		filepath.Join(ckDir, ".blob-1234-890.tmp"),
		filepath.Join(lsDir, ".lease-1234-123.tmp"),
	} {
		if err := os.WriteFile(p, []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := VerifyRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("fsck not clean: %v", res)
	}
	if res.TmpSwept != 3 {
		t.Fatalf("TmpSwept = %d, want 3 (%v)", res.TmpSwept, res)
	}
	if res.Quarantined != 0 {
		t.Errorf("orphaned temps counted as quarantines: %v", res)
	}
	for _, pat := range []string{
		filepath.Join(dir, ".*.tmp"),
		filepath.Join(ckDir, ".*.tmp"),
		filepath.Join(lsDir, ".*.tmp"),
	} {
		if m, _ := filepath.Glob(pat); len(m) != 0 {
			t.Errorf("temp files survive the sweep: %v", m)
		}
	}
}
