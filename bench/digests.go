package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/runner"
)

// pinnedSeed is the seed whose outputs digests.json pins.
const pinnedSeed = 1

// digestsJSON maps a workload to the SHA-256 of its seed-1 reference
// output: fig5-mc's first grid pass, makespan's Figure 1 and 2 tables of
// the first request seed, and corpus.CanonicalResults of the first 200
// corpus-quick cases.
//
//go:embed digests.json
var digestsJSON []byte

// checkDigest compares the SHA-256 of a seed-1 output with the pinned
// one; other seeds have nothing pinned.
func checkDigest(name string, seed uint64, output []byte) error {
	if seed != pinnedSeed {
		return nil
	}
	got := sha256Hex(output)
	var pinned map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: seed-%d output digest %s\n", name, seed, got)
	if want := pinned[name]; got != want {
		return fmt.Errorf("%s: seed-%d output digest %s, digests.json pins %q", name, seed, got, want)
	}
	return nil
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// sampleIndex draws the seeded index in [0, n) of the output a run
// re-checks against an independent computation.
func sampleIndex(seed uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return fault.NewRNG(runner.CellSeed(seed, streamSample, 0)).Intn(n)
}
