//go:build !amd64

package tensor

// fold runs the portable kernel where no assembly one exists.
func fold(d, coef []float32, off []int, b []float32) { foldGo(d, coef, off, b) }
