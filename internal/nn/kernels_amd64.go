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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func rowsAVX(k *kern)

//go:noescape
func adamAVX(p, grad, m, v *float64, n int, k *[10]float64)
