//go:build race

package cluster

// Under the race detector the seeded schedule sweep runs a fixed subset:
// the harness runs on one goroutine, so the detector adds little there.
const sweepSeeds, killStride = 2, 16
