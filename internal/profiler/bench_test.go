package profiler

import (
	"bytes"
	"fmt"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
)

// benchContexts matches the 192 contexts of the benchmark's offline-report
// snapshot, so these numbers isolate that workload's persist round trip.
const benchContexts = 192

// benchSnapshot builds a snapshot whose records carry op totals, means and
// deviations, heap statistics and size histograms of up to eight buckets
// each, spread over different sizes per context.
func benchSnapshot(tb testing.TB) []*Profile {
	tb.Helper()
	tab := alloctx.NewTable()
	p := New()
	kinds := [...]spec.Kind{spec.KindHashMap, spec.KindArrayList, spec.KindHashSet}
	ops := [...]spec.Op{spec.Add, spec.GetIndex, spec.GetKey, spec.Put, spec.Contains, spec.Iterate, spec.Remove}
	cycle := &heap.CycleStats{}
	for i := 0; i < benchContexts; i++ {
		ctx := tab.Static(fmt.Sprintf("bench.Family%d.site%d:%d;bench.Main:9", i%12, i, 10+i))
		kind := kinds[i%len(kinds)]
		for j := 0; j < 8; j++ {
			in := p.OnAlloc(ctx, kind, kind, 16)
			for n := 0; n < (i*7+j*13)%41; n++ {
				in.Record(ops[(i+n%4)%len(ops)])
				in.NoteSize(n + 1)
			}
			p.OnDeath(in)
		}
		cycle.PerContext = append(cycle.PerContext, heap.ContextCycle{
			Key: ctx.Key(), Footprint: heap.Footprint{Live: int64(4096 + 64*i), Used: int64(2048 + 32*i), Core: 1024}, Objects: 8,
		})
	}
	p.ObserveCycle(cycle)
	profiles := p.Snapshot()
	if len(profiles) != benchContexts {
		tb.Fatalf("built %d profiles, want %d", len(profiles), benchContexts)
	}
	return profiles
}

// BenchmarkWriteProfiles measures serializing one snapshot (DESIGN.md §5,
// item 7).
func BenchmarkWriteProfiles(b *testing.B) {
	profiles := benchSnapshot(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := WriteProfiles(&buf, profiles); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkReadProfiles measures reading that snapshot back with the
// corruption-tolerant reader.
func BenchmarkReadProfiles(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, benchSnapshot(b)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		profiles, recErrs, err := ReadProfilesReport(bytes.NewReader(data))
		if err != nil || len(recErrs) != 0 || len(profiles) != benchContexts {
			b.Fatalf("read %d profiles, damage %v, err %v", len(profiles), recErrs, err)
		}
	}
}

// TestSnapshotCodecAllocs bounds the allocations of one write and one read
// of benchSnapshot's 192 contexts. With encoding/json they took 10,762 and
// 14,121.
func TestSnapshotCodecAllocs(t *testing.T) {
	profiles := benchSnapshot(t)
	var buf bytes.Buffer
	write := testing.AllocsPerRun(10, func() {
		buf.Reset()
		if err := WriteProfiles(&buf, profiles); err != nil {
			t.Fatal(err)
		}
	})
	data := bytes.Clone(buf.Bytes())
	read := testing.AllocsPerRun(10, func() {
		back, recErrs, err := ReadProfilesReport(bytes.NewReader(data))
		if err != nil || len(recErrs) != 0 || len(back) != benchContexts {
			t.Fatalf("read %d profiles, damage %v, err %v", len(back), recErrs, err)
		}
	})
	if write > 1000 || read > 3000 {
		t.Fatalf("WriteProfiles %.0f allocs (want <= 1000), ReadProfilesReport %.0f (want <= 3000)", write, read)
	}
}
