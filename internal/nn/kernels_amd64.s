#include "textflag.h"
#include "go_asm.h"

// AVX kernels of nn.Linear's row kernel and of nn.Adam (kernels.go has their
// Go twins). Every vector lane is one accumulator of the Go kernel it replaces
// and receives that kernel's addends in that kernel's order, through a
// separate VMULPD and VADDPD (never a fused multiply-add); VDIVPD and VSQRTPD
// round like / and math.Sqrt. So the results are the Go kernels' to the bit.

// func rowsAVX(k *kern)
//
// rowOp.runGo (kernels.go) blocked for the registers and the cache: C is taken
// column tile by column tile — 16 columns (in ZMM registers, where kern.wide
// says the host has AVX-512F), then 8, then 4, then 1 — each down all the
// groups of four rows (eight accumulators, B's two vectors loaded once per k
// and shared by the four rows), so a tile of B is read once per call and
// serves every row while it sits in L1; rows left over (fewer than four, as in
// a one-sample pass) go one at a time in tiles of 32 (ZMM again), 16, 4 and 1
// columns. Each accumulator starts from C, from the row vector, or at +0
// (kern.init), receives A[a, k]·B[k, b] for k ascending, and is stored to C;
// then, if k asks for one, the post-op runs over every row of C. A ZMM lane is
// an accumulator like a YMM lane, fed by the same separate VMULPD and VADDPD,
// so the tiles a host runs do not change a bit.
TEXT ·rowsAVX(SB), NOSPLIT, $0-8
	MOVQ k+0(FP), DI
	MOVQ kern_a(DI), SI    // row a of A
	MOVQ kern_c(DI), DX    // row a of C
	MOVQ kern_na(DI), BX   // rows left
	MOVQ kern_sa(DI), R9
	LEAQ (R9)(R9*2), R10   // three rows of A
	MOVQ kern_sk(DI), R12
	MOVQ kern_sb(DI), R13

	CMPQ BX, $4
	JLT  rows1
	XORQ AX, AX            // column b, in bytes
	CMPQ kern_wide(DI), $0
	JEQ  c8

c16:
	LEAQ 128(AX), R8
	CMPQ R8, kern_nb(DI)
	JGT  c8
	MOVQ kern_a(DI), SI
	MOVQ kern_c(DI), DX
	MOVQ kern_na(DI), BX
	SHRQ $2, BX            // groups of four rows

r4w16:
	MOVQ    kern_init(DI), CX
	CMPQ    CX, $1
	JEQ     r4w16row
	JGT     r4w16zero
	MOVQ    kern_sc(DI), CX
	LEAQ    (DX)(AX*1), R8
	VMOVUPD (R8), Z0
	VMOVUPD 64(R8), Z1
	VMOVUPD (R8)(CX*1), Z2
	VMOVUPD 64(R8)(CX*1), Z3
	VMOVUPD (R8)(CX*2), Z4
	VMOVUPD 64(R8)(CX*2), Z5
	LEAQ    (R8)(CX*2), R8
	VMOVUPD (R8)(CX*1), Z6
	VMOVUPD 64(R8)(CX*1), Z7
	JMP     r4w16go

r4w16row:
	MOVQ    kern_row(DI), R8
	VMOVUPD (R8)(AX*1), Z0
	VMOVUPD 64(R8)(AX*1), Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z1, Z3
	VMOVAPD Z0, Z4
	VMOVAPD Z1, Z5
	VMOVAPD Z0, Z6
	VMOVAPD Z1, Z7
	JMP     r4w16go

r4w16zero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

r4w16go:
	MOVQ    SI, R8
	MOVQ    kern_b(DI), R11
	ADDQ    AX, R11
	MOVQ    kern_nk(DI), CX
	TESTQ   CX, CX
	JZ      r4w16st

r4w16k:
	VMOVUPD      (R11), Z12
	VMOVUPD      64(R11), Z13
	VBROADCASTSD (R8), Z8
	VBROADCASTSD (R8)(R9*1), Z9
	VBROADCASTSD (R8)(R9*2), Z10
	VBROADCASTSD (R8)(R10*1), Z11
	VMULPD       Z12, Z8, Z14
	VMULPD       Z13, Z8, Z15
	VMULPD       Z12, Z9, Z16
	VMULPD       Z13, Z9, Z17
	VMULPD       Z12, Z10, Z18
	VMULPD       Z13, Z10, Z19
	VMULPD       Z12, Z11, Z20
	VMULPD       Z13, Z11, Z21
	VADDPD       Z14, Z0, Z0
	VADDPD       Z15, Z1, Z1
	VADDPD       Z16, Z2, Z2
	VADDPD       Z17, Z3, Z3
	VADDPD       Z18, Z4, Z4
	VADDPD       Z19, Z5, Z5
	VADDPD       Z20, Z6, Z6
	VADDPD       Z21, Z7, Z7
	ADDQ         R12, R8
	ADDQ         R13, R11
	DECQ         CX
	JNZ          r4w16k

r4w16st:
	MOVQ    kern_sc(DI), CX
	LEAQ    (DX)(AX*1), R8
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, 64(R8)
	VMOVUPD Z2, (R8)(CX*1)
	VMOVUPD Z3, 64(R8)(CX*1)
	VMOVUPD Z4, (R8)(CX*2)
	VMOVUPD Z5, 64(R8)(CX*2)
	LEAQ    (R8)(CX*2), R8
	VMOVUPD Z6, (R8)(CX*1)
	VMOVUPD Z7, 64(R8)(CX*1)
	LEAQ    (SI)(R9*4), SI
	LEAQ    (DX)(CX*4), DX
	DECQ    BX
	JNZ     r4w16
	ADDQ    $128, AX
	JMP     c16

c8:
	LEAQ 64(AX), R8
	CMPQ R8, kern_nb(DI)
	JGT  c4
	MOVQ kern_a(DI), SI
	MOVQ kern_c(DI), DX
	MOVQ kern_na(DI), BX
	SHRQ $2, BX            // groups of four rows

r4w8:
	MOVQ    kern_init(DI), CX
	CMPQ    CX, $1
	JEQ     r4w8row
	JGT     r4w8zero
	MOVQ    kern_sc(DI), CX
	LEAQ    (DX)(AX*1), R8
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD (R8)(CX*1), Y2
	VMOVUPD 32(R8)(CX*1), Y3
	VMOVUPD (R8)(CX*2), Y4
	VMOVUPD 32(R8)(CX*2), Y5
	LEAQ    (R8)(CX*2), R8
	VMOVUPD (R8)(CX*1), Y6
	VMOVUPD 32(R8)(CX*1), Y7
	JMP     r4w8go

r4w8row:
	MOVQ    kern_row(DI), R8
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	JMP     r4w8go

r4w8zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

r4w8go:
	MOVQ    SI, R8
	MOVQ    kern_b(DI), R11
	ADDQ    AX, R11
	MOVQ    kern_nk(DI), CX
	TESTQ   CX, CX
	JZ      r4w8st

r4w8k:
	VMOVUPD      (R11), Y12
	VMOVUPD      32(R11), Y13
	VBROADCASTSD (R8), Y8
	VBROADCASTSD (R8)(R9*1), Y9
	VBROADCASTSD (R8)(R9*2), Y10
	VBROADCASTSD (R8)(R10*1), Y11
	VMULPD       Y12, Y8, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y13, Y8, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y12, Y9, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y13, Y9, Y15
	VADDPD       Y15, Y3, Y3
	VMULPD       Y12, Y10, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y13, Y10, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       Y12, Y11, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y13, Y11, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         R12, R8
	ADDQ         R13, R11
	DECQ         CX
	JNZ          r4w8k

r4w8st:
	MOVQ    kern_sc(DI), CX
	LEAQ    (DX)(AX*1), R8
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, (R8)(CX*1)
	VMOVUPD Y3, 32(R8)(CX*1)
	VMOVUPD Y4, (R8)(CX*2)
	VMOVUPD Y5, 32(R8)(CX*2)
	LEAQ    (R8)(CX*2), R8
	VMOVUPD Y6, (R8)(CX*1)
	VMOVUPD Y7, 32(R8)(CX*1)
	LEAQ    (SI)(R9*4), SI
	LEAQ    (DX)(CX*4), DX
	DECQ    BX
	JNZ     r4w8
	ADDQ    $64, AX
	JMP     c8

c4:
	LEAQ 32(AX), R8
	CMPQ R8, kern_nb(DI)
	JGT  c1
	MOVQ kern_a(DI), SI
	MOVQ kern_c(DI), DX
	MOVQ kern_na(DI), BX
	SHRQ $2, BX

r4w4:
	MOVQ    kern_init(DI), CX
	CMPQ    CX, $1
	JEQ     r4w4row
	JGT     r4w4zero
	MOVQ    kern_sc(DI), CX
	LEAQ    (DX)(AX*1), R8
	VMOVUPD (R8), Y0
	VMOVUPD (R8)(CX*1), Y2
	VMOVUPD (R8)(CX*2), Y4
	LEAQ    (R8)(CX*2), R8
	VMOVUPD (R8)(CX*1), Y6
	JMP     r4w4go

r4w4row:
	MOVQ    kern_row(DI), R8
	VMOVUPD (R8)(AX*1), Y0
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y4
	VMOVAPD Y0, Y6
	JMP     r4w4go

r4w4zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6

r4w4go:
	MOVQ    SI, R8
	MOVQ    kern_b(DI), R11
	ADDQ    AX, R11
	MOVQ    kern_nk(DI), CX
	TESTQ   CX, CX
	JZ      r4w4st

r4w4k:
	VMOVUPD      (R11), Y12
	VBROADCASTSD (R8), Y8
	VBROADCASTSD (R8)(R9*1), Y9
	VBROADCASTSD (R8)(R9*2), Y10
	VBROADCASTSD (R8)(R10*1), Y11
	VMULPD       Y12, Y8, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y12, Y9, Y9
	VADDPD       Y9, Y2, Y2
	VMULPD       Y12, Y10, Y10
	VADDPD       Y10, Y4, Y4
	VMULPD       Y12, Y11, Y11
	VADDPD       Y11, Y6, Y6
	ADDQ         R12, R8
	ADDQ         R13, R11
	DECQ         CX
	JNZ          r4w4k

r4w4st:
	MOVQ    kern_sc(DI), CX
	LEAQ    (DX)(AX*1), R8
	VMOVUPD Y0, (R8)
	VMOVUPD Y2, (R8)(CX*1)
	VMOVUPD Y4, (R8)(CX*2)
	LEAQ    (R8)(CX*2), R8
	VMOVUPD Y6, (R8)(CX*1)
	LEAQ    (SI)(R9*4), SI
	LEAQ    (DX)(CX*4), DX
	DECQ    BX
	JNZ     r4w4
	ADDQ    $32, AX
	JMP     c4

c1:
	CMPQ AX, kern_nb(DI)
	JGE  tail
	MOVQ kern_a(DI), SI
	MOVQ kern_c(DI), DX
	MOVQ kern_na(DI), BX
	SHRQ $2, BX

r4w1:
	MOVQ   kern_init(DI), CX
	CMPQ   CX, $1
	JEQ    r4w1row
	JGT    r4w1zero
	MOVQ   kern_sc(DI), CX
	LEAQ   (DX)(AX*1), R8
	VMOVSD (R8), X0
	VMOVSD (R8)(CX*1), X2
	VMOVSD (R8)(CX*2), X4
	LEAQ   (R8)(CX*2), R8
	VMOVSD (R8)(CX*1), X6
	JMP    r4w1go

r4w1row:
	MOVQ    kern_row(DI), R8
	VMOVSD  (R8)(AX*1), X0
	VMOVAPD X0, X2
	VMOVAPD X0, X4
	VMOVAPD X0, X6
	JMP     r4w1go

r4w1zero:
	VXORPD X0, X0, X0
	VXORPD X2, X2, X2
	VXORPD X4, X4, X4
	VXORPD X6, X6, X6

r4w1go:
	MOVQ   SI, R8
	MOVQ   kern_b(DI), R11
	ADDQ   AX, R11
	MOVQ   kern_nk(DI), CX
	TESTQ  CX, CX
	JZ     r4w1st

r4w1k:
	VMOVSD (R11), X12
	VMOVSD (R8), X8
	VMOVSD (R8)(R9*1), X9
	VMOVSD (R8)(R9*2), X10
	VMOVSD (R8)(R10*1), X11
	VMULSD X12, X8, X8
	VADDSD X8, X0, X0
	VMULSD X12, X9, X9
	VADDSD X9, X2, X2
	VMULSD X12, X10, X10
	VADDSD X10, X4, X4
	VMULSD X12, X11, X11
	VADDSD X11, X6, X6
	ADDQ   R12, R8
	ADDQ   R13, R11
	DECQ   CX
	JNZ    r4w1k

r4w1st:
	MOVQ   kern_sc(DI), CX
	LEAQ   (DX)(AX*1), R8
	VMOVSD X0, (R8)
	VMOVSD X2, (R8)(CX*1)
	VMOVSD X4, (R8)(CX*2)
	LEAQ   (R8)(CX*2), R8
	VMOVSD X6, (R8)(CX*1)
	LEAQ   (SI)(R9*4), SI
	LEAQ   (DX)(CX*4), DX
	DECQ   BX
	JNZ    r4w1
	ADDQ   $8, AX
	JMP    c1

// The rows past the last group of four, one at a time.
tail:
	MOVQ  kern_na(DI), BX
	MOVQ  BX, CX
	ANDQ  $-4, CX          // rows done
	ANDQ  $3, BX
	MOVQ  CX, SI
	IMULQ R9, SI
	ADDQ  kern_a(DI), SI
	MOVQ  kern_sc(DI), DX
	IMULQ CX, DX
	ADDQ  kern_c(DI), DX

rows1:
	TESTQ BX, BX
	JZ    post
	XORQ  AX, AX
	CMPQ  kern_wide(DI), $0
	JEQ   r1w16

r1w32:
	LEAQ    256(AX), R8
	CMPQ    R8, kern_nb(DI)
	JGT     r1w16
	LEAQ    (DX)(AX*1), R8
	MOVQ    kern_init(DI), CX
	CMPQ    CX, $1
	JNE     r1w32c
	MOVQ    kern_row(DI), R8
	ADDQ    AX, R8

r1w32c:
	VMOVUPD (R8), Z0
	VMOVUPD 64(R8), Z1
	VMOVUPD 128(R8), Z2
	VMOVUPD 192(R8), Z3
	CMPQ    CX, $2
	JNE     r1w32go
	VPXORQ  Z0, Z0, Z0
	VPXORQ  Z1, Z1, Z1
	VPXORQ  Z2, Z2, Z2
	VPXORQ  Z3, Z3, Z3

r1w32go:
	MOVQ    SI, R8
	MOVQ    kern_b(DI), R11
	ADDQ    AX, R11
	MOVQ    kern_nk(DI), CX
	TESTQ   CX, CX
	JZ      r1w32st

r1w32k:
	VBROADCASTSD (R8), Z8
	VMULPD       (R11), Z8, Z12
	VADDPD       Z12, Z0, Z0
	VMULPD       64(R11), Z8, Z13
	VADDPD       Z13, Z1, Z1
	VMULPD       128(R11), Z8, Z14
	VADDPD       Z14, Z2, Z2
	VMULPD       192(R11), Z8, Z15
	VADDPD       Z15, Z3, Z3
	ADDQ         R12, R8
	ADDQ         R13, R11
	DECQ         CX
	JNZ          r1w32k

r1w32st:
	LEAQ    (DX)(AX*1), R8
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, 64(R8)
	VMOVUPD Z2, 128(R8)
	VMOVUPD Z3, 192(R8)
	ADDQ    $256, AX
	JMP     r1w32

r1w16:
	LEAQ    128(AX), R8
	CMPQ    R8, kern_nb(DI)
	JGT     r1w4
	LEAQ    (DX)(AX*1), R8
	MOVQ    kern_init(DI), CX
	CMPQ    CX, $1
	JNE     r1w16c
	MOVQ    kern_row(DI), R8
	ADDQ    AX, R8

r1w16c:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	CMPQ    CX, $2
	JNE     r1w16go
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3

r1w16go:
	MOVQ    SI, R8
	MOVQ    kern_b(DI), R11
	ADDQ    AX, R11
	MOVQ    kern_nk(DI), CX
	TESTQ   CX, CX
	JZ      r1w16st

r1w16k:
	VBROADCASTSD (R8), Y8
	VMULPD       (R11), Y8, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       32(R11), Y8, Y13
	VADDPD       Y13, Y1, Y1
	VMULPD       64(R11), Y8, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       96(R11), Y8, Y15
	VADDPD       Y15, Y3, Y3
	ADDQ         R12, R8
	ADDQ         R13, R11
	DECQ         CX
	JNZ          r1w16k

r1w16st:
	LEAQ    (DX)(AX*1), R8
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	ADDQ    $128, AX
	JMP     r1w16

r1w4:
	LEAQ    32(AX), R8
	CMPQ    R8, kern_nb(DI)
	JGT     r1w1
	LEAQ    (DX)(AX*1), R8
	MOVQ    kern_init(DI), CX
	CMPQ    CX, $1
	JNE     r1w4c
	MOVQ    kern_row(DI), R8
	ADDQ    AX, R8

r1w4c:
	VMOVUPD (R8), Y0
	CMPQ    CX, $2
	JNE     r1w4go
	VXORPD  Y0, Y0, Y0

r1w4go:
	MOVQ    SI, R8
	MOVQ    kern_b(DI), R11
	ADDQ    AX, R11
	MOVQ    kern_nk(DI), CX
	TESTQ   CX, CX
	JZ      r1w4st

r1w4k:
	VBROADCASTSD (R8), Y8
	VMULPD       (R11), Y8, Y12
	VADDPD       Y12, Y0, Y0
	ADDQ         R12, R8
	ADDQ         R13, R11
	DECQ         CX
	JNZ          r1w4k

r1w4st:
	VMOVUPD Y0, (DX)(AX*1)
	ADDQ    $32, AX
	JMP     r1w4

r1w1:
	CMPQ   AX, kern_nb(DI)
	JGE    r1next
	LEAQ   (DX)(AX*1), R8
	MOVQ   kern_init(DI), CX
	CMPQ   CX, $1
	JNE    r1w1c
	MOVQ   kern_row(DI), R8
	ADDQ   AX, R8

r1w1c:
	VMOVSD (R8), X0
	CMPQ   CX, $2
	JNE    r1w1go
	VXORPD X0, X0, X0

r1w1go:
	MOVQ   SI, R8
	MOVQ   kern_b(DI), R11
	ADDQ   AX, R11
	MOVQ   kern_nk(DI), CX
	TESTQ  CX, CX
	JZ     r1w1st

r1w1k:
	VMOVSD (R8), X8
	VMULSD (R11), X8, X12
	VADDSD X12, X0, X0
	ADDQ   R12, R8
	ADDQ   R13, R11
	DECQ   CX
	JNZ    r1w1k

r1w1st:
	VMOVSD X0, (DX)(AX*1)
	ADDQ   $8, AX
	JMP    r1w1

r1next:
	ADDQ R9, SI
	ADDQ kern_sc(DI), DX
	DECQ BX
	JMP  rows1

// The post-op, row by row: postReLU stores max(c, +0)·m into p (VMAXPD
// returns its second operand, +0, when both are zeros or either is NaN, as
// the Go loop's "act = 0; if c > 0" does); postGate stores (c·m) with +0
// wherever p ≤ 0 (an ordered, quiet compare: false for NaN) back into c.
post:
	MOVQ   kern_post(DI), CX
	TESTQ  CX, CX
	JZ     done
	VXORPD Y15, Y15, Y15
	MOVQ   kern_c(DI), DX
	MOVQ   kern_p(DI), R9
	SUBQ   DX, R9          // p − c, in bytes
	MOVQ   kern_m(DI), R10
	SUBQ   DX, R10         // m − c, read only with kernMask
	MOVQ   kern_na(DI), BX
	MOVQ   kern_nb(DI), R13
	MOVQ   R13, R12
	ANDQ   $-32, R12       // the bytes of a row that fill whole vectors

prow:
	TESTQ BX, BX
	JZ    done
	XORQ  AX, AX

pv:
	CMPQ    AX, R12
	JAE     ps
	LEAQ    (DX)(AX*1), R11
	VMOVUPD (R11), Y0
	TESTQ   $2, CX         // postGate
	JNZ     pvgate
	VMAXPD  Y15, Y0, Y0
	TESTQ   $4, CX         // kernMask
	JZ      pvrelu
	VMULPD  (R11)(R10*1), Y0, Y0

pvrelu:
	VMOVUPD Y0, (R11)(R9*1)
	ADDQ    $32, AX
	JMP     pv

pvgate:
	TESTQ   $4, CX
	JZ      pvg
	VMULPD  (R11)(R10*1), Y0, Y0

pvg:
	VMOVUPD (R11)(R9*1), Y1
	VCMPPD  $0x12, Y15, Y1, Y1 // p ≤ 0, LE_OQ
	VANDNPD Y0, Y1, Y0
	VMOVUPD Y0, (R11)
	ADDQ    $32, AX
	JMP     pv

ps:
	CMPQ   AX, R13
	JAE    pnext
	LEAQ   (DX)(AX*1), R11
	VMOVSD (R11), X0
	TESTQ  $2, CX
	JNZ    psgate
	VMAXSD X15, X0, X0
	TESTQ  $4, CX
	JZ     psrelu
	VMULSD (R11)(R10*1), X0, X0

psrelu:
	VMOVSD X0, (R11)(R9*1)
	ADDQ   $8, AX
	JMP    ps

psgate:
	TESTQ  $4, CX
	JZ     psg
	VMULSD (R11)(R10*1), X0, X0

psg:
	VMOVSD  (R11)(R9*1), X1
	VCMPSD  $0x12, X15, X1, X1
	VANDNPD X0, X1, X0
	VMOVSD  X0, (R11)
	ADDQ    $8, AX
	JMP     ps

pnext:
	ADDQ kern_sc(DI), DX
	DECQ BX
	JMP  prow

done:
	VZEROUPPER
	RET

// func adamAVX(p, grad, m, v *float64, n int, k *[10]float64)
//
// Adam.updateGo four weights at a time. k holds scale, β₁, 1−β₁, β₂, 1−β₂,
// LR, c₁, c₂ and ε, broadcast into Y7–Y15, and 1/scale when scale is a power
// of two (else 0), in Y5: then g·(1/scale) is g/scale to the bit, both being
// the one rounding of the same real number, and costs a multiply instead of a
// division.
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
	VBROADCASTSD 72(DX), Y5
	MOVQ         72(DX), R10   // non-zero: multiply by Y5
	VXORPD       Y6, Y6, Y6
	SHLQ         $3, R13
	MOVQ         R13, CX
	ANDQ         $-32, CX
	XORQ         AX, AX

adamv:
	CMPQ    AX, CX
	JAE     adams
	VMOVUPD (SI)(AX*1), Y0
	TESTQ   R10, R10
	JNZ     adamvmul
	VDIVPD  Y7, Y0, Y0          // gi = g / scale
	JMP     adamvgi

adamvmul:
	VMULPD Y5, Y0, Y0

adamvgi:
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
	TESTQ   R10, R10
	JNZ     adamsmul
	VDIVSD  X7, X0, X0
	JMP     adamsgi

adamsmul:
	VMULSD X5, X0, X0

adamsgi:
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
