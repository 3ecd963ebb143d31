package autograd

import "fmt"

// vectorKernel selects addScaled's body: the AVX one where the CPU can run
// it, else the portable loop. It is set once, at package init.
var vectorKernel = haveAVX()

// haveAVX reports whether this CPU and OS can run addScaledVector: CPUID
// leaf 1 must report OSXSAVE (ECX bit 27) and AVX (ECX bit 28), and XCR0
// must show the OS saving XMM and YMM state (bits 1 and 2). The kernel
// needs AVX instructions only, not AVX2 or FMA.
func haveAVX() bool {
	ecx := cpuid1ECX()
	if ecx&(1<<27) == 0 || ecx&(1<<28) == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

// addScaled computes what addScaledPortable does, to the bit. The vector
// body (addscaled_amd64.s) runs four outputs per lane group, each running
// sum in a register across all of the terms. It covers len(dst) rounded
// down to a multiple of 4, after every offset has been checked here, and
// the portable loop takes the rest.
func addScaled(dst, src, c []float64, off []int) {
	n4 := len(dst) &^ 3
	if !vectorKernel || n4 == 0 || len(c) == 0 {
		addScaledPortable(dst, src, c, off)
		return
	}
	off = off[:len(c)]
	var hi uint // the largest offset, where a negative one counts as huge
	for _, o := range off {
		hi = max(hi, uint(o))
	}
	if last := len(src) - len(dst); last < 0 || hi > uint(last) {
		panic(fmt.Sprintf("autograd: addScaled offset %d + %d outside src of %d", int(hi), len(dst), len(src)))
	}
	addScaledVector(dst[:n4], src, c, off)
	if n4 < len(dst) {
		addScaledPortable(dst[n4:], src[n4:], c, off)
	}
}

// addScaledVector is addScaled's AVX body over len(dst)%4 == 0 outputs.
//
//go:noescape
func addScaledVector(dst, src, c []float64, off []int)

func cpuid1ECX() (ecx uint32)

func xgetbv0() (eax uint32)
