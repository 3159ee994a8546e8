package fleet

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/alloctx"
	"chameleon/internal/faults"
	"chameleon/internal/profiler"
)

// writeSource lands a snapshot in the watch dir with a deterministic,
// strictly-advancing mtime so every tick sees a fresh delivery.
func writeSource(t testing.TB, dir, name string, profiles []*profiler.Profile, stamp time.Time) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := profiler.WriteProfilesFile(path, profiles); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
}

func touchAll(t testing.TB, dir string, stamp time.Time) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Chtimes(filepath.Join(dir, e.Name()), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
}

func ledgerState(l Ledger, name string) SourceHealth {
	for _, s := range l.Sources {
		if s.Name == name {
			return s
		}
	}
	return SourceHealth{Name: name, State: "absent"}
}

func mergedSourceNames(res TickResult) map[string]bool {
	names := make(map[string]bool)
	if res.Merged == nil {
		return names
	}
	for _, sr := range res.Merged.Report.Sources {
		names[sr.Name] = true
	}
	return names
}

// chain composes per-source ingest hooks: first one that fires wins.
func chain(hooks ...func(string, []byte) ([]byte, bool)) func(string, []byte) ([]byte, bool) {
	return func(src string, data []byte) ([]byte, bool) {
		for _, h := range hooks {
			if m, fired := h(src, data); fired {
				return m, true
			}
		}
		return data, false
	}
}

// TestIngestFaultTolerance is the acceptance scenario: a watch directory
// with a healthy source, a persistently torn source, a flapping source and
// a source in transient outage, faults armed, run for many rounds. The
// watcher must never crash, never merge a quarantined source's data, and
// the outage source must travel healthy -> quarantined -> (failed
// probation, doubled backoff) -> healthy. Run under -race in CI.
func TestIngestFaultTolerance(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	writeSource(t, dir, "src-good.json", buildSnapshot(t, 0, 4), base)
	writeSource(t, dir, "src-torn.json", buildSnapshot(t, 1, 4), base)
	writeSource(t, dir, "src-flaky.json", buildSnapshot(t, 2, 6), base)
	writeSource(t, dir, "src-outage.json", buildSnapshot(t, 3, 4), base)

	faults.ArmT(t, &faults.Plan{IngestSnapshot: chain(
		faults.TornPrefix("src-torn.json", 0.6),
		faults.AlternateCorrupt("src-flaky.json"),
		faults.CorruptFirstN("src-outage.json", 3),
	)})

	w := NewWatcher(IngestOptions{
		Dir:             dir,
		FailLimit:       2,
		BackoffTicks:    2,
		BackoffMaxTicks: 16,
	})

	sawQuarantine, sawRecovery := false, false
	var quarantinedAt, recoveredAt int64
	prevBackoff := 0
	for i := 1; i <= 16; i++ {
		touchAll(t, dir, base.Add(time.Duration(i)*time.Second))
		res, err := w.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		// The healthy source must merge every round.
		if !mergedSourceNames(res)["src-good.json"] {
			t.Fatalf("tick %d: healthy source missing from merge", i)
		}
		// A quarantined source's data never reaches a merge.
		for _, s := range res.Ledger.Sources {
			if s.State == "quarantined" && mergedSourceNames(res)[s.Name] {
				t.Fatalf("tick %d: quarantined %s was merged", i, s.Name)
			}
		}
		if ledgerState(res.Ledger, "src-flaky.json").State == "quarantined" {
			t.Fatalf("tick %d: flapping-but-useful source quarantined", i)
		}
		out := ledgerState(res.Ledger, "src-outage.json")
		if out.State == "quarantined" {
			if sawQuarantine && out.BackoffTicks > prevBackoff && prevBackoff > 0 {
				// Doubling observed via a failed probation.
				if out.BackoffTicks != prevBackoff*2 {
					t.Fatalf("tick %d: backoff %d after %d, want doubled", i, out.BackoffTicks, prevBackoff)
				}
			}
			prevBackoff = out.BackoffTicks
			if !sawQuarantine {
				sawQuarantine, quarantinedAt = true, res.Tick
			}
		}
		if sawQuarantine && out.State == "healthy" {
			if !sawRecovery {
				sawRecovery, recoveredAt = true, res.Tick
			}
			if !mergedSourceNames(res)["src-outage.json"] {
				t.Fatalf("tick %d: recovered source still excluded", i)
			}
		}
	}
	if !sawQuarantine {
		t.Fatal("outage source never quarantined")
	}
	if !sawRecovery {
		t.Fatalf("outage source never recovered (quarantined at tick %d)", quarantinedAt)
	}
	if recoveredAt <= quarantinedAt {
		t.Fatalf("recovery tick %d not after quarantine tick %d", recoveredAt, quarantinedAt)
	}

	// The torn source stayed suspect but kept contributing its valid
	// prefix, with the damage accounted.
	torn := ledgerState(w.Ledger(), "src-torn.json")
	if torn.State != "suspect" {
		t.Fatalf("torn source state = %s, want suspect", torn.State)
	}
	if torn.RecordsKept == 0 || torn.RecordsDropped == 0 {
		t.Fatalf("torn source accounting: %+v", torn)
	}
	outage := ledgerState(w.Ledger(), "src-outage.json")
	if outage.Quarantines < 2 {
		t.Fatalf("outage source quarantined %d time(s), want >= 2 (failed probation doubles)", outage.Quarantines)
	}
}

// TestWatcherFirstQuarantineLastsBackoffTicks: a source's first
// quarantine lasts exactly BackoffTicks ticks, odd values included, and
// the probation read comes on the tick it expires.
func TestWatcherFirstQuarantineLastsBackoffTicks(t *testing.T) {
	for _, backoff := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("backoff=%d", backoff), func(t *testing.T) {
			dir := t.TempDir()
			base := time.Now().Add(-time.Hour)
			path := filepath.Join(dir, "src.json")
			if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
			w := NewWatcher(IngestOptions{Dir: dir, FailLimit: 1, BackoffTicks: backoff, BackoffMaxTicks: 64})
			res, err := w.Tick()
			if err != nil {
				t.Fatal(err)
			}
			st := ledgerState(res.Ledger, "src.json")
			if st.State != "quarantined" || st.BackoffTicks != backoff || st.UntilTick != res.Tick+int64(backoff) {
				t.Fatalf("first quarantine %+v at tick %d, want %d ticks", st, res.Tick, backoff)
			}
			quarantinedAt := res.Tick

			// A good delivery heals the source at the probation read, which
			// must come exactly when the backoff expires.
			writeSource(t, dir, "src.json", buildSnapshot(t, 0, 4), base)
			for {
				res, err = w.Tick()
				if err != nil {
					t.Fatal(err)
				}
				if ledgerState(res.Ledger, "src.json").State != "quarantined" {
					break
				}
				if res.Tick > quarantinedAt+int64(backoff) {
					t.Fatalf("still quarantined at tick %d, %d ticks after tick %d", res.Tick, backoff, quarantinedAt)
				}
			}
			if got := res.Tick - quarantinedAt; got != int64(backoff) {
				t.Fatalf("quarantine lasted %d ticks, want %d", got, backoff)
			}
		})
	}
}

// TestWatcherConcurrentPushesDuringTicks drives the HTTP ingest surface
// from several goroutines while the watch loop ticks — the -race witness
// that pushes, scans and ledger reads don't trample each other.
func TestWatcherConcurrentPushesDuringTicks(t *testing.T) {
	dir := t.TempDir()
	w := NewWatcher(IngestOptions{Dir: dir})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	snap := snapshotBytes(t, buildSnapshot(t, 1, 3))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := srv.Client().Post(
					fmt.Sprintf("%s/ingest/pusher-%d", srv.URL, g), "application/json", bytes.NewReader(snap))
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 202 {
					t.Errorf("push status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := w.Tick(); err != nil {
					t.Errorf("tick: %v", err)
					return
				}
			}
		}
	}()
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Pushers finish; then stop the ticker.
	for g := 0; g < 50; g++ {
		time.Sleep(10 * time.Millisecond)
		l := w.Ledger()
		if len(l.Sources) == 4 {
			break
		}
	}
	close(stop)
	<-wgDone

	if _, err := w.Tick(); err != nil {
		t.Fatal(err)
	}
	l := w.Ledger()
	if len(l.Sources) != 4 {
		t.Fatalf("ledger has %d sources, want 4: %+v", len(l.Sources), l.Sources)
	}
	for _, s := range l.Sources {
		if s.State != "healthy" {
			t.Fatalf("pushed source %s state %s, want healthy", s.Name, s.State)
		}
	}

	// Garbage pushes are rejected before touching the directory.
	resp, err := srv.Client().Post(srv.URL+"/ingest/evil", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage push status %d, want 400", resp.StatusCode)
	}
	resp, err = srv.Client().Post(srv.URL+"/ingest/bad%20name", "application/json", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("traversal push status %d, want 400", resp.StatusCode)
	}
}

// TestStaleSourceSitsOut: a source that stops delivering goes stale and
// leaves the merge; a fresh delivery brings it straight back.
func TestStaleSourceSitsOut(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	writeSource(t, dir, "live.json", buildSnapshot(t, 0, 3), base)
	writeSource(t, dir, "idle.json", buildSnapshot(t, 1, 3), base)
	w := NewWatcher(IngestOptions{Dir: dir, StaleTicks: 2})

	var res TickResult
	var err error
	for i := 1; i <= 5; i++ {
		// Only live.json keeps delivering.
		stamp := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, "live.json"), stamp, stamp); err != nil {
			t.Fatal(err)
		}
		if res, err = w.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st := ledgerState(res.Ledger, "idle.json"); st.State != "stale" {
		t.Fatalf("idle source state = %s, want stale", st.State)
	}
	if mergedSourceNames(res)["idle.json"] {
		t.Fatal("stale source still merged")
	}

	stamp := base.Add(10 * time.Second)
	if err := os.Chtimes(filepath.Join(dir, "idle.json"), stamp, stamp); err != nil {
		t.Fatal(err)
	}
	if res, err = w.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := ledgerState(res.Ledger, "idle.json"); st.State != "healthy" {
		t.Fatalf("redelivered source state = %s, want healthy", st.State)
	}
	if !mergedSourceNames(res)["idle.json"] {
		t.Fatal("redelivered source not merged")
	}
}

// TestSkewOutlierQuarantined: a shard that keeps disagreeing with the rest
// of the fleet accumulates skew strikes and is exiled like any other
// failure mode; with it gone, fleet confidence recovers.
func TestSkewOutlierQuarantined(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	ctx := "svc.Handler:10;svc.Main:3"
	mk := func(mode int64, allocs int64) []*profiler.Profile {
		p := skewProfile(alloctx.NewTable(), ctx, 640, 0, mode)
		p.Allocs = allocs
		return []*profiler.Profile{p}
	}
	writeSource(t, dir, "a.json", mk(4, 64), base)
	writeSource(t, dir, "b.json", mk(4, 65), base)
	writeSource(t, dir, "weird.json", mk(512, 66), base)

	w := NewWatcher(IngestOptions{Dir: dir, SkewLimit: 3})
	var res TickResult
	var err error
	for i := 1; i <= 4; i++ {
		touchAll(t, dir, base.Add(time.Duration(i)*time.Second))
		if res, err = w.Tick(); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			if res.Conflicted != 1 {
				t.Fatalf("tick %d: conflicted = %d, want 1", i, res.Conflicted)
			}
			if st := ledgerState(res.Ledger, "weird.json"); st.SkewStrikes != i {
				t.Fatalf("tick %d: skew strikes = %d, want %d", i, st.SkewStrikes, i)
			}
		}
	}
	if st := ledgerState(res.Ledger, "weird.json"); st.State != "quarantined" {
		t.Fatalf("persistent outlier state = %s, want quarantined", st.State)
	}
	if res.Conflicted != 0 {
		t.Fatalf("conflict persists after outlier exiled: %d", res.Conflicted)
	}
	ann := res.Merged.Annotations[ctx]
	if ann.Conflicted || ann.Sources != 2 {
		t.Fatalf("post-exile annotation: %+v", ann)
	}
}
