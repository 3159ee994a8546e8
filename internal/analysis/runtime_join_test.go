package analysis

import (
	"bytes"
	"strings"
	"testing"

	"chameleon/examples/sitecheck/safe"
	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/profiler"
)

// The analyzer's whole value rests on one contract: the labels and keys
// it derives from source are the ones the runtime interns. These tests
// run the fixture workload for real and join the resulting v2 snapshot
// against the statically-derived manifest.

func TestStaticKeyJoinsRuntimeSnapshot(t *testing.T) {
	res := fixtureResult(t)

	session := core.NewSession(core.Config{Mode: alloctx.Static})
	rt := session.Runtime()
	safe.CountTags(rt, []string{"go", "sites", "go"})
	safe.Histogram(rt, []int{1, 2, 3})
	// An unlabeled site too: in static mode it lands in the "<none>"
	// catch-all context, which must come back from serialization without
	// being mistaken for a stale site context (S011).
	safe.DynamicSite(rt, []string{"alpha"})

	// Round-trip through the on-disk snapshot format: the join must
	// survive serialization, not just in-process pointers.
	var buf bytes.Buffer
	if err := profiler.WriteProfiles(&buf, session.Prof.Snapshot()); err != nil {
		t.Fatal(err)
	}
	profiles, recErrs, err := profiler.ReadProfilesReport(&buf)
	if err != nil || len(recErrs) > 0 {
		t.Fatalf("read: %v, damage %v", err, recErrs)
	}

	keys := map[uint64]string{}
	for _, p := range profiles {
		if p.Context != nil && p.Context.Key() != 0 {
			keys[p.Context.Key()] = p.Context.String()
		}
	}
	joined := 0
	for _, fn := range []string{"safe.CountTags", "safe.Histogram"} {
		site := findSite(t, res, fn)
		label, ok := keys[site.ContextKey]
		if !ok {
			t.Errorf("%s: manifest key %d joins no snapshot context (have %v)", fn, site.ContextKey, keys)
			continue
		}
		if label != site.Label {
			t.Errorf("%s: key %d joins context %q, manifest says %q", fn, site.ContextKey, label, site.Label)
		}
		joined++
	}
	if joined == 0 {
		t.Fatal("no manifest context key joined the runtime snapshot")
	}

	// And the stale-context cross-check agrees: nothing in this snapshot
	// is stale relative to the fixture sites.
	for _, d := range CrossCheckSnapshot(res.Sites, profiles, "<test>") {
		t.Errorf("unexpected stale-context diagnostic: %s", d)
	}
}

func TestFrameLabelJoinsDynamicCapture(t *testing.T) {
	res := fixtureResult(t)

	session := core.NewSession(core.Config{Mode: alloctx.Dynamic})
	rt := session.Runtime()
	safe.DynamicSite(rt, []string{"alpha", "beta"})

	site := findSite(t, res, "safe.DynamicSite")
	profiles := session.Prof.Snapshot()
	matched := false
	for _, p := range profiles {
		if p.Context == nil {
			continue
		}
		if alloctx.FirstFrame(p.Context.String()) == site.Label {
			matched = true
		}
	}
	if !matched {
		var got []string
		for _, p := range profiles {
			got = append(got, p.Context.String())
		}
		t.Fatalf("no dynamic capture's innermost frame matches analyzer label %q (captured: %s)",
			site.Label, strings.Join(got, ", "))
	}

	for _, d := range CrossCheckSnapshot(res.Sites, profiles, "<test>") {
		t.Errorf("dynamic snapshot reported stale against its own source: %s", d)
	}
}
