package nn

// useAVX selects the assembly kernels of kernels_amd64.s: the CPU has AVX and
// the OS saves the YMM registers. It is set once, at start-up.
var useAVX = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6 // XMM and YMM state
}

// useAVX512 adds the row kernel's ZMM tiles: the CPU has AVX-512F and the OS
// saves the ZMM registers. It is set once, at start-up; the tests flip it to
// check both tile sets against the Go kernel.
var useAVX512 = useAVX && hasAVX512()

func hasAVX512() bool {
	const avx512f = 1 << 16
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&0xE6 == 0xE6 // XMM, YMM, opmask and the upper ZMM state
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func rowsAVX(k *kern)

//go:noescape
func adamAVX(p, grad, m, v *float64, n int, k *[10]float64)
