GO ?= go

.PHONY: build test race analyze apply chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Dogfood the site analyzer over the repository itself (docs/ANALYSIS.md):
# every package except the deliberately-unsafe fixture tree must come back
# clean of error-severity findings, and the run writes the site manifest.
# CI runs this and uploads the manifest as an artifact.
MANIFEST ?= site-manifest.json

analyze:
	$(GO) run ./cmd/chameleon-sites -manifest $(MANIFEST) \
		$$($(GO) list ./... | grep -v examples/sitecheck/unsafe)

# Dogfood the ahead-of-time rewriter (docs/SPECIALIZE.md): profile the
# pmd workload, print the rewrite chameleon-apply derives for the repo's
# own workload tree, then verify the rewritten tree reproduces the
# reference checksum. Nothing is written without -write.
PROFILE ?= pmd-profile.json

apply:
	$(GO) run ./cmd/chameleon -workload pmd -scale 50 -profile-out $(PROFILE) > /dev/null
	$(GO) run ./cmd/chameleon-apply -profile $(PROFILE) -diff ./internal/workloads
	$(GO) run ./cmd/chameleon-apply -profile $(PROFILE) -verify pmd -scale 5 ./internal/workloads

# Chaos soak (docs/ROBUSTNESS.md): seeded fault schedules over every
# injection seam, all scenarios, with invariant auditors. Violations
# shrink to replayable reproducers under $(CHAOS_OUT). CI runs this with
# a larger seed matrix and replays the committed known-good schedule.
SEEDS ?= 32
CHAOS_OUT ?= chaos-artifacts

chaos:
	mkdir -p $(CHAOS_OUT)
	$(GO) run ./cmd/chameleon-chaos -seeds $(SEEDS) -out $(CHAOS_OUT)
	$(GO) run ./cmd/chameleon-chaos -replay examples/chaos/known-good.json
