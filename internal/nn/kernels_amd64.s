#include "textflag.h"

// AVX kernels of nn.Linear and nn.Adam (kernels.go has their Go twins). Every
// vector lane is one accumulator of the Go kernel it replaces and receives
// that kernel's addends in that kernel's order, through a separate VMULPD and
// VADDPD (never a fused multiply-add); VDIVPD and VSQRTPD round like / and
// math.Sqrt. So the results are the Go kernels' to the bit.

// func fwdAVX(wt, b, x, y *float64, in, out int)
//
// y[o] = b[o] + Σᵢ wt[i*out+o]·x[i], i ascending, lanes across o: tiles of 16
// outputs held in four registers, then tiles of 4, then single outputs.
TEXT ·fwdAVX(SB), NOSPLIT, $0-48
	MOVQ wt+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ x+16(FP), R8
	MOVQ y+24(FP), DI
	MOVQ in+32(FP), CX
	MOVQ out+40(FP), R10
	MOVQ R10, R9
	SHLQ $3, R9          // a row of wt, one input's weights, in bytes

tile16:
	CMPQ    R10, $16
	JLT     tile4
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	MOVQ    SI, AX
	MOVQ    R8, R11
	MOVQ    CX, R12

loop16:
	VBROADCASTSD (R11), Y4
	VMULPD       0(AX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(AX), Y4, Y5
	VADDPD       Y5, Y1, Y1
	VMULPD       64(AX), Y4, Y5
	VADDPD       Y5, Y2, Y2
	VMULPD       96(AX), Y4, Y5
	VADDPD       Y5, Y3, Y3
	ADDQ         R9, AX
	ADDQ         $8, R11
	DECQ         R12
	JNZ          loop16
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, SI
	ADDQ         $128, DX
	ADDQ         $128, DI
	SUBQ         $16, R10
	JMP          tile16

tile4:
	CMPQ    R10, $4
	JLT     tile1
	VMOVUPD (DX), Y0
	MOVQ    SI, AX
	MOVQ    R8, R11
	MOVQ    CX, R12

loop4:
	VBROADCASTSD (R11), Y4
	VMULPD       (AX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R9, AX
	ADDQ         $8, R11
	DECQ         R12
	JNZ          loop4
	VMOVUPD      Y0, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $32, DI
	SUBQ         $4, R10
	JMP          tile4

tile1:
	TESTQ  R10, R10
	JZ     fwddone
	VMOVSD (DX), X0
	MOVQ   SI, AX
	MOVQ   R8, R11
	MOVQ   CX, R12

loop1:
	VMOVSD (R11), X4
	VMULSD (AX), X4, X5
	VADDSD X5, X0, X0
	ADDQ   R9, AX
	ADDQ   $8, R11
	DECQ   R12
	JNZ    loop1
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   R10
	JMP    tile1

fwddone:
	VZEROUPPER
	RET

// func igradAVX(w, dy, dx *float64, in, out int)
//
// dx[i] = Σₒ w[o*in+i]·dy[o], o ascending, lanes across i. Rows with
// dy[o] == ±0 are skipped; the live ones are gathered four at a time (R8–R11,
// their dy broadcast in Y8–Y11, oldest first) and applied in one pass over dx
// as dx[i] + r0[i]·g0 + r1[i]·g1 + r2[i]·g2 + r3[i]·g3, left to right. The last
// group is padded with g = 0 rows: they add ±0 to an accumulator that cannot
// be −0, which for finite weights changes nothing.
TEXT ·igradAVX(SB), NOSPLIT, $0-40
	MOVQ   w+0(FP), SI
	MOVQ   dy+8(FP), DX
	MOVQ   dx+16(FP), DI
	MOVQ   in+24(FP), R13
	MOVQ   out+32(FP), BX
	SHLQ   $3, R13         // a row of w, in bytes
	LEAQ   (DX)(BX*8), BX  // the end of dy
	MOVQ   R13, CX
	ANDQ   $-32, CX        // the bytes of a row that fill whole vectors
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX

zerov:
	CMPQ    AX, CX
	JAE     zeros
	VMOVUPD Y7, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     zerov

zeros:
	CMPQ   AX, R13
	JAE    gather
	VMOVSD X7, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    zeros

gather:
	XORQ   R12, R12        // live rows gathered
	MOVQ   SI, R8
	MOVQ   SI, R9
	MOVQ   SI, R10
	MOVQ   SI, R11
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

scan:
	CMPQ     DX, BX
	JAE      flush
	VUCOMISD (DX), X7
	JNE      live
	JPS      live          // NaN is not zero
	ADDQ     $8, DX
	ADDQ     R13, SI
	JMP      scan

live:
	MOVQ         R9, R8
	MOVQ         R10, R9
	MOVQ         R11, R10
	MOVQ         SI, R11
	VMOVAPD      Y9, Y8
	VMOVAPD      Y10, Y9
	VMOVAPD      Y11, Y10
	VBROADCASTSD (DX), Y11
	ADDQ         $8, DX
	ADDQ         R13, SI
	INCQ         R12
	CMPQ         R12, $4
	JLT          scan

pass:
	XORQ R12, R12
	XORQ AX, AX

passv:
	CMPQ    AX, CX
	JAE     passs
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  (R8)(AX*1), Y8, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(AX*1), Y9, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R10)(AX*1), Y10, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R11)(AX*1), Y11, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     passv

passs:
	CMPQ   AX, R13
	JAE    scan
	VMOVSD (DI)(AX*1), X0
	VMULSD (R8)(AX*1), X8, X1
	VADDSD X1, X0, X0
	VMULSD (R9)(AX*1), X9, X1
	VADDSD X1, X0, X0
	VMULSD (R10)(AX*1), X10, X1
	VADDSD X1, X0, X0
	VMULSD (R11)(AX*1), X11, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    passs

flush:
	TESTQ R12, R12
	JZ    igraddone

pad:
	MOVQ    R9, R8
	MOVQ    R10, R9
	MOVQ    R11, R10
	VMOVAPD Y9, Y8
	VMOVAPD Y10, Y9
	VMOVAPD Y11, Y10
	VXORPD  Y11, Y11, Y11
	INCQ    R12
	CMPQ    R12, $4
	JLT     pad
	JMP     pass           // which returns to scan, finding dy done and nothing gathered

igraddone:
	VZEROUPPER
	RET

// func wgradAVX(gw, gb, x, dy *float64, in, lo, hi int)
//
// For o in [lo, hi) with dy[o] != ±0: gb[o] += dy[o] and
// gw[o*in+i] += dy[o]·x[i], lanes across i.
TEXT ·wgradAVX(SB), NOSPLIT, $0-56
	MOVQ   gw+0(FP), SI
	MOVQ   gb+8(FP), DI
	MOVQ   x+16(FP), R8
	MOVQ   dy+24(FP), DX
	MOVQ   in+32(FP), R13
	MOVQ   lo+40(FP), AX
	MOVQ   hi+48(FP), BX
	LEAQ   (DX)(BX*8), BX  // the end of dy's range
	LEAQ   (DX)(AX*8), DX
	LEAQ   (DI)(AX*8), DI
	IMULQ  R13, AX
	LEAQ   (SI)(AX*8), SI  // row lo of gw
	SHLQ   $3, R13         // a row of gw, in bytes
	MOVQ   R13, CX
	ANDQ   $-32, CX
	VXORPD X7, X7, X7

row:
	CMPQ     DX, BX
	JAE      wgraddone
	VUCOMISD (DX), X7
	JNE      wlive
	JPS      wlive

next:
	ADDQ $8, DX
	ADDQ $8, DI
	ADDQ R13, SI
	JMP  row

wlive:
	VMOVSD       (DI), X0
	VADDSD       (DX), X0, X0
	VMOVSD       X0, (DI)
	VBROADCASTSD (DX), Y8
	XORQ         AX, AX

wv:
	CMPQ    AX, CX
	JAE     ws
	VMULPD  (R8)(AX*1), Y8, Y1
	VADDPD  (SI)(AX*1), Y1, Y1
	VMOVUPD Y1, (SI)(AX*1)
	ADDQ    $32, AX
	JMP     wv

ws:
	CMPQ   AX, R13
	JAE    next
	VMULSD (R8)(AX*1), X8, X1
	VADDSD (SI)(AX*1), X1, X1
	VMOVSD X1, (SI)(AX*1)
	ADDQ   $8, AX
	JMP    ws

wgraddone:
	VZEROUPPER
	RET

// func adamAVX(p, grad, m, v *float64, n int, k *[9]float64)
//
// Adam.updateGo four weights at a time. k holds scale, β₁, 1−β₁, β₂, 1−β₂,
// LR, c₁, c₂ and ε, broadcast into Y7–Y15.
TEXT ·adamAVX(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), R13
	MOVQ         k+40(FP), DX
	VBROADCASTSD 0(DX), Y7
	VBROADCASTSD 8(DX), Y8
	VBROADCASTSD 16(DX), Y9
	VBROADCASTSD 24(DX), Y10
	VBROADCASTSD 32(DX), Y11
	VBROADCASTSD 40(DX), Y12
	VBROADCASTSD 48(DX), Y13
	VBROADCASTSD 56(DX), Y14
	VBROADCASTSD 64(DX), Y15
	VXORPD       Y6, Y6, Y6
	SHLQ         $3, R13
	MOVQ         R13, CX
	ANDQ         $-32, CX
	XORQ         AX, AX

adamv:
	CMPQ    AX, CX
	JAE     adams
	VMOVUPD (SI)(AX*1), Y0
	VDIVPD  Y7, Y0, Y0          // gi = g / scale
	VMULPD  (R8)(AX*1), Y8, Y1  // β₁·m
	VMULPD  Y0, Y9, Y2          // (1−β₁)·gi
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)(AX*1)
	VMULPD  (R9)(AX*1), Y10, Y3 // β₂·v
	VMULPD  Y0, Y11, Y4         // (1−β₂)·gi
	VMULPD  Y0, Y4, Y4          // ·gi
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)(AX*1)
	VDIVPD  Y13, Y1, Y1         // m / c₁
	VMULPD  Y1, Y12, Y1         // LR·(m / c₁)
	VDIVPD  Y14, Y3, Y3         // v / c₂
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3         // + ε
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*1), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	VMOVUPD Y6, (SI)(AX*1)
	ADDQ    $32, AX
	JMP     adamv

adams:
	CMPQ    AX, R13
	JAE     adamdone
	VMOVSD  (SI)(AX*1), X0
	VDIVSD  X7, X0, X0
	VMULSD  (R8)(AX*1), X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (R8)(AX*1)
	VMULSD  (R9)(AX*1), X10, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R9)(AX*1)
	VDIVSD  X13, X1, X1
	VMULSD  X1, X12, X1
	VDIVSD  X14, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X15, X3, X3
	VDIVSD  X3, X1, X1
	VMOVSD  (DI)(AX*1), X2
	VSUBSD  X1, X2, X2
	VMOVSD  X2, (DI)(AX*1)
	VMOVSD  X6, (SI)(AX*1)
	ADDQ    $8, AX
	JMP     adams

adamdone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
