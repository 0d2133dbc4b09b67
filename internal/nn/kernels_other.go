//go:build !amd64

package nn

// Off amd64 there are no assembly kernels: the Go ones run everywhere, and
// these stubs only satisfy the compiler.
const useAVX = false

func fwdAVX(wt, b, x, y *float64, in, out int)             { panic("nn: no AVX kernels") }
func igradAVX(w, dy, dx *float64, in, out int)             { panic("nn: no AVX kernels") }
func wgradAVX(gw, gb, x, dy *float64, in, lo, hi int)      { panic("nn: no AVX kernels") }
func adamAVX(p, grad, m, v *float64, n int, k *[9]float64) { panic("nn: no AVX kernels") }
