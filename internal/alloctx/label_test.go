package alloctx

import (
	"hash/fnv"
	"strings"
	"testing"
)

// TestStaticKeyMatchesInterning is the contract the static analyzer
// depends on: the key it computes for a label offline is the key the
// runtime interns for the same label.
func TestStaticKeyMatchesInterning(t *testing.T) {
	labels := []string{
		"pkg.Func:12",
		"tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50",
		OverflowLabel,
		"",
		"weird:label;with;semis:1",
	}
	tab := NewTable()
	for _, l := range labels {
		if got, want := tab.Static(l).Key(), StaticKey(l); got != want {
			t.Errorf("Static(%q).Key() = %#x, StaticKey = %#x", l, got, want)
		}
	}
}

// hashString is the reference key of s: the standard library's 64-bit
// FNV-1a, with 0 reserved as the table does.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	if k := h.Sum64(); k != 0 {
		return k
	}
	return 1
}

// TestStaticKeyNoAlloc: StaticKey hashes "static:" and then the label,
// the bytes of their concatenation, without building it, so a label too
// long for Go's 32-byte concatenation buffer allocates nothing.
func TestStaticKeyNoAlloc(t *testing.T) {
	long := "tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50"
	for _, l := range []string{"", "pkg.F:1", long} {
		if got, want := StaticKey(l), hashString("static:"+l); got != want {
			t.Errorf("StaticKey(%q) = %#x, want %#x", l, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { StaticKey(long) }); n != 0 {
		t.Fatalf("StaticKey of a %d-byte label: %v allocs, want 0", len(long), n)
	}
}

func TestStaticKeyMatchesOverflow(t *testing.T) {
	tab := NewTable()
	if got, want := tab.Overflow().Key(), StaticKey(OverflowLabel); got != want {
		t.Errorf("Overflow().Key() = %#x, StaticKey(OverflowLabel) = %#x", got, want)
	}
}

func TestSiteLabel(t *testing.T) {
	cases := []struct {
		fn   string
		line int
		want string
	}{
		{"chameleon/internal/workloads.(*TVLA).step", 44, "workloads.(*TVLA).step:44"},
		{"main.main", 10, "main.main:10"},
		{"workloads.run", 7, "workloads.run:7"}, // already trimmed: idempotent
	}
	for _, c := range cases {
		if got := SiteLabel(c.fn, c.line); got != c.want {
			t.Errorf("SiteLabel(%q, %d) = %q, want %q", c.fn, c.line, got, c.want)
		}
	}
}

func TestJoinAndFirstFrame(t *testing.T) {
	joined := JoinFrames("a.b:1", "c.d:2")
	if joined != "a.b:1;c.d:2" {
		t.Fatalf("JoinFrames = %q", joined)
	}
	if got := FirstFrame(joined); got != "a.b:1" {
		t.Errorf("FirstFrame(%q) = %q", joined, got)
	}
	if got := FirstFrame("solo:3"); got != "solo:3" {
		t.Errorf("FirstFrame(solo) = %q", got)
	}
}

// TestDynamicStringUsesSiteLabels asserts dynamic capture renders its
// context through the same per-frame derivation the analyzer uses: every
// rendered frame is SiteLabel(frame.Function, frame.Line).
func TestDynamicStringUsesSiteLabels(t *testing.T) {
	tab := NewTable()
	ctx := tab.CaptureDynamic(0, 2)
	frames := ctx.Frames()
	if len(frames) == 0 {
		t.Fatal("no frames captured")
	}
	parts := make([]string, len(frames))
	for i, f := range frames {
		parts[i] = SiteLabel(f.Function, f.Line)
	}
	if got, want := ctx.String(), JoinFrames(parts...); got != want {
		t.Errorf("ctx.String() = %q, derived = %q", got, want)
	}
	if !strings.Contains(ctx.String(), "alloctx.TestDynamicStringUsesSiteLabels:") {
		t.Errorf("innermost frame should be this test: %q", ctx.String())
	}
}
