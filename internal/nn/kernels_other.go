//go:build !amd64

package nn

// Off amd64 there are no assembly kernels: the Go ones run everywhere, and
// these stubs only satisfy the compiler.
const useAVX, useAVX512 = false, false

func rowsAVX(k *kern)                                       { panic("nn: no AVX kernels") }
func adamAVX(p, grad, m, v *float64, n int, k *[10]float64) { panic("nn: no AVX kernels") }
