#include "textflag.h"

// func foldSSE(d, coef []float32, off []int, b []float32)
//
// The body of fold (fold_amd64.go) in SSE2, part of the amd64 baseline.
// Each lane of a packed instruction is one output element and performs
// exactly the scalar steps foldGo performs for it:
//
//	s = d[j]; s += a0*b0[j]; s += a1*b1[j]; s += a2*b2[j]; s += a3*b3[j]
//
// as a MULPS (one rounding) followed by an ADDPS (one rounding); an element
// tail shorter than four lanes takes the same steps with MULSS and ADDSS.
// There is no FMA, which would round once per multiply-add and change the
// bits. A 1–3-term tail is folded one term per pass: every partial sum is a
// float32 both in a register and in d, so storing it between two additions
// changes nothing, and neither does grouping the terms into passes.
//
// Register use:
//
//	DI  &d[0]            CX  len(d)             DX  len(d) rounded down to 4
//	SI  &coef[t]         BX  terms left         R8  &off[t]      R9  &b[0]
//	R10–R13  the b rows of the pass's terms     AX  element index j
//	X0–X3    the pass's coefficients, broadcast to all four lanes
//	X4       four partial sums                  X5–X8  products
TEXT ·foldSSE(SB), NOSPLIT, $0-96
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ coef_base+24(FP), SI
	MOVQ coef_len+32(FP), BX
	MOVQ off_base+48(FP), R8
	MOVQ b_base+72(FP), R9
	MOVQ CX, DX
	ANDQ $-4, DX

	// d = 0.
	XORPS X0, X0
	XORQ  AX, AX
	JMP   zerovtest

zerov:
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX

zerovtest:
	CMPQ AX, DX
	JB   zerov
	JMP  zerostest

zeros:
	MOVSS X0, (DI)(AX*4)
	INCQ  AX

zerostest:
	CMPQ AX, CX
	JB   zeros

	// Passes of four terms.
	JMP pass4test

pass4:
	MOVSS  0(SI), X0
	SHUFPS $0x00, X0, X0
	MOVSS  4(SI), X1
	SHUFPS $0x00, X1, X1
	MOVSS  8(SI), X2
	SHUFPS $0x00, X2, X2
	MOVSS  12(SI), X3
	SHUFPS $0x00, X3, X3
	MOVQ   0(R8), R10
	LEAQ   (R9)(R10*4), R10
	MOVQ   8(R8), R11
	LEAQ   (R9)(R11*4), R11
	MOVQ   16(R8), R12
	LEAQ   (R9)(R12*4), R12
	MOVQ   24(R8), R13
	LEAQ   (R9)(R13*4), R13
	XORQ   AX, AX
	JMP    p4vtest

p4v:
	MOVUPS (DI)(AX*4), X4
	MOVUPS (R10)(AX*4), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS (R11)(AX*4), X6
	MULPS  X1, X6
	ADDPS  X6, X4
	MOVUPS (R12)(AX*4), X7
	MULPS  X2, X7
	ADDPS  X7, X4
	MOVUPS (R13)(AX*4), X8
	MULPS  X3, X8
	ADDPS  X8, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX

p4vtest:
	CMPQ AX, DX
	JB   p4v
	JMP  p4stest

p4s:
	MOVSS (DI)(AX*4), X4
	MOVSS (R10)(AX*4), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS (R11)(AX*4), X6
	MULSS X1, X6
	ADDSS X6, X4
	MOVSS (R12)(AX*4), X7
	MULSS X2, X7
	ADDSS X7, X4
	MOVSS (R13)(AX*4), X8
	MULSS X3, X8
	ADDSS X8, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX

p4stest:
	CMPQ AX, CX
	JB   p4s
	ADDQ $16, SI
	ADDQ $32, R8
	SUBQ $4, BX

pass4test:
	CMPQ BX, $4
	JAE  pass4

	// The last 1–3 terms, one per pass.
	JMP pass1test

pass1:
	MOVSS  0(SI), X0
	SHUFPS $0x00, X0, X0
	MOVQ   0(R8), R10
	LEAQ   (R9)(R10*4), R10
	XORQ   AX, AX
	JMP    p1vtest

p1v:
	MOVUPS (DI)(AX*4), X4
	MOVUPS (R10)(AX*4), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX

p1vtest:
	CMPQ AX, DX
	JB   p1v
	JMP  p1stest

p1s:
	MOVSS (DI)(AX*4), X4
	MOVSS (R10)(AX*4), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX

p1stest:
	CMPQ AX, CX
	JB   p1s
	ADDQ $4, SI
	ADDQ $8, R8
	DECQ BX

pass1test:
	CMPQ BX, $0
	JNE  pass1
	RET
