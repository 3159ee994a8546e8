// Onlinemode example: the fully-automatic replacement mode of §3.3.2/§5.4.
// No report, no manual edits: the runtime itself watches each allocation
// context, and once a context has accumulated enough evidence, subsequent
// allocations at that context silently receive the better implementation.
//
// Run with: go run ./examples/onlinemode
package main

import (
	"fmt"

	"chameleon/internal/adaptive"
	"chameleon/internal/collections"
	"chameleon/internal/core"
)

func main() {
	session := core.NewSession(core.Config{
		Online:        true,
		OnlineOptions: adaptive.Options{MinEvidence: 16},
		GCThreshold:   32 << 10,
	})
	rt := session.Runtime()

	// A "configuration cache" phase: many tiny maps from one site.
	site := collections.At("app.ConfigCache.load:42;app.Server.start:17")
	kindCounts := map[string]int{}
	var kinds []string // in order of first use, so the output is stable
	for i := 0; i < 200; i++ {
		m := collections.NewHashMap[string, int](rt, site)
		m.Put("port", 8080+i)
		m.Put("retries", 3)
		m.Put("verbose", 1)
		if v, ok := m.Get("port"); !ok || v != 8080+i {
			panic("wrong value")
		}
		k := m.KindName()
		if kindCounts[k] == 0 {
			kinds = append(kinds, k)
		}
		kindCounts[k]++
		m.Free()
	}

	fmt.Println("allocations by backing implementation (same declared type: HashMap):")
	for _, kind := range kinds {
		fmt.Printf("  %-12s %d\n", kind, kindCounts[kind])
	}
	fmt.Printf("\nonline selector replaced %d allocations\n", session.Selector.Replacements())
	fmt.Println("(the first ~16 allocations gathered evidence as HashMaps; every later")
	fmt.Println(" allocation at the context was transparently backed by an ArrayMap)")
}
