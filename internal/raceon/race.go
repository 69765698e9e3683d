//go:build race

package raceon

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
