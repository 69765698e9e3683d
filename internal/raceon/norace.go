//go:build !race

// Package raceon tells a test whether the race detector is compiled in.
// The allocation-budget tests skip under it: instrumented code allocates
// differently, and the budgets describe the production build.
package raceon

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
