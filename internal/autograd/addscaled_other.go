//go:build !amd64

package autograd

// vectorKernel is false off amd64: there is no vector body to select.
var vectorKernel = false

// addScaled is addScaledPortable off amd64.
func addScaled(dst, src, c []float64, off []int) { addScaledPortable(dst, src, c, off) }
