//go:build !race

package cluster

// The seeded schedule sweep's size: seeds per cell and the step between
// kill indices (race_test.go sets the race build's subset).
const sweepSeeds, killStride = 80, 1
