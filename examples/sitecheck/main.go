// Sitecheck: the fixture program behind the chameleon-sites static
// analyzer (internal/analysis). The safe package holds allocation sites
// the analyzer must prove specializable; the unsafe package plants one
// violation per S-code. This driver runs the safe workload under a
// Static-mode session — the labels it interns at run time are exactly
// the context keys the analyzer derives from source, which the golden
// tests (and `chameleon-sites -profile`) join against a snapshot.
//
// Run with: go run ./examples/sitecheck
package main

import (
	"fmt"
	"os"

	"chameleon/examples/sitecheck/safe"
	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/profiler"
)

func main() {
	session := core.NewSession(core.Config{Mode: alloctx.Static})
	rt := session.Runtime()

	tags := safe.CountTags(rt, []string{"go", "analysis", "go", "sites"})
	hist := safe.Histogram(rt, []int{1, 2, 2, 3})
	words := safe.DynamicSite(rt, []string{"alpha", "beta", "alpha"})
	fmt.Printf("tags=%d hist=%d words=%d\n", tags, hist, words)

	// With an output path, persist the v3 snapshot so the analyzer's
	// -profile cross-check has something real to join against.
	if len(os.Args) > 1 {
		profiles := session.Prof.Snapshot()
		if err := profiler.WriteProfilesFile(os.Args[1], profiles); err != nil {
			fmt.Fprintln(os.Stderr, "sitecheck:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d profiles to %s\n", len(profiles), os.Args[1])
	}
}
