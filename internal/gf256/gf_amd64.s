//go:build amd64 && !gf256ref

#include "textflag.h"

// GF(2^8) slice kernels: the AVX2 VPSHUFB tier and, below it in this file,
// the GFNI tier.
//
// The nibble table for coefficient k is 32 bytes: tab[0:16] = k·n for the
// sixteen low-nibble values, tab[16:32] = k·(n<<4) for the high nibbles.
// VPSHUFB with a table broadcast to both 128-bit lanes performs thirty-two
// independent 4-bit lookups at once, so each 32-byte chunk costs two
// shuffles, a shift, two masks, and one or two XORs.
//
// Every vector instruction below is VEX-encoded, the 16-byte step included:
// a legacy-SSE instruction executed while the upper YMM halves are dirty
// costs a state transition of ~100 ns per call on current Intel cores. For
// the same reason VZEROUPPER precedes every RET, so the Go code we return
// to (which may use legacy SSE) starts from a clean upper state.

// func hasAVX2() bool
//
// AVX2 is usable when the CPU has it (CPUID.7:EBX bit 5), the CPU has AVX
// and XSAVE is OS-enabled (CPUID.1:ECX bits 28 and 27), and the OS saves
// XMM and YMM state on context switch (XCR0 bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7           // highest basic leaf
	JB    done
	MOVL  $1, AX
	CPUID
	ANDL  $0x18000000, CX  // OSXSAVE | AVX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX           // XCR0: SSE and AVX state
	CMPL  AX, $6
	JNE   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $5, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
done:
	RET

// LOADTABLES is the common prologue: low table in Y6, high table in Y7 (both
// lanes), the 0x0f byte mask in Y8. X6/X7/X8 are their low halves, which the
// 16-byte step uses.
#define LOADTABLES(tabreg)        \
	VBROADCASTI128 (tabreg), Y6   \
	VBROADCASTI128 16(tabreg), Y7 \
	MOVQ $0x0f0f0f0f0f0f0f0f, AX  \
	VMOVQ AX, X8                  \
	VPBROADCASTQ X8, Y8

// GFMUL replaces every byte of v with k·byte, using t as scratch. It works
// on X or Y registers alike; lo/hi/mask must be of the same width.
#define GFMUL(v, t, lo, hi, mask) \
	VPSRLQ  $4, v, t              \
	VPAND   mask, v, v            \
	VPAND   mask, t, t            \
	VPSHUFB v, lo, v              \
	VPSHUFB t, hi, t              \
	VPXOR   t, v, v

// func mulSliceAsm(tab *byte, dst *byte, n int)
TEXT ·mulSliceAsm(SB), NOSPLIT, $0-24
	MOVQ tab+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	LOADTABLES(SI)
	CMPQ CX, $64
	JB   mul32

mul64:
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	GFMUL(Y0, Y2, Y6, Y7, Y8)
	GFMUL(Y1, Y3, Y6, Y7, Y8)
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     mul64

mul32:
	TESTQ   $32, CX
	JZ      mul16
	VMOVDQU (DI), Y0
	GFMUL(Y0, Y2, Y6, Y7, Y8)
	VMOVDQU Y0, (DI)
	ADDQ    $32, DI

mul16:
	TESTQ   $16, CX
	JZ      muldone
	VMOVDQU (DI), X0
	GFMUL(X0, X2, X6, X7, X8)
	VMOVDQU X0, (DI)

muldone:
	VZEROUPPER
	RET

// func addMulSliceAsm(tab *byte, dst *byte, src *byte, n int)
TEXT ·addMulSliceAsm(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), BX
	MOVQ n+24(FP), CX
	LOADTABLES(SI)
	CMPQ CX, $64
	JB   addmul32

addmul64:
	VMOVDQU (BX), Y0
	VMOVDQU 32(BX), Y1
	GFMUL(Y0, Y2, Y6, Y7, Y8)
	GFMUL(Y1, Y3, Y6, Y7, Y8)
	VPXOR   (DI), Y0, Y0 // accumulate into dst
	VPXOR   32(DI), Y1, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, BX
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     addmul64

addmul32:
	TESTQ   $32, CX
	JZ      addmul16
	VMOVDQU (BX), Y0
	GFMUL(Y0, Y2, Y6, Y7, Y8)
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, BX
	ADDQ    $32, DI

addmul16:
	TESTQ   $16, CX
	JZ      addmuldone
	VMOVDQU (BX), X0
	GFMUL(X0, X2, X6, X7, X8)
	VPXOR   (DI), X0, X0
	VMOVDQU X0, (DI)

addmuldone:
	VZEROUPPER
	RET

// The GFNI tier. VGF2P8AFFINEQB multiplies every byte of its data operand by
// an 8×8 bit matrix held in each 64-bit lane of its matrix operand; with
// _gfni[k] broadcast to all four lanes one instruction multiplies 32 bytes
// by k. Go's operand order is VGF2P8AFFINEQB $0, matrix, data, dst, and the
// data operand must be a register. The same VEX-only and VZEROUPPER rules
// hold as for the AVX2 tier.

// func hasGFNI() bool
//
// GFNI is CPUID.(EAX=7,ECX=0):ECX bit 8. Its VEX forms also need the YMM
// state hasAVX2 checks for; the dispatcher asks only when that holds.
TEXT ·hasGFNI(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    gfnidone
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $8, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
gfnidone:
	RET

// func mulSliceGFNI(mat uint64, dst *byte, n int)
TEXT ·mulSliceGFNI(SB), NOSPLIT, $0-24
	MOVQ         dst+8(FP), DI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ mat+0(FP), Y8
	CMPQ         CX, $64
	JB           gmul32

gmul64:
	VMOVDQU        (DI), Y0
	VMOVDQU        32(DI), Y1
	VGF2P8AFFINEQB $0, Y8, Y0, Y0
	VGF2P8AFFINEQB $0, Y8, Y1, Y1
	VMOVDQU        Y0, (DI)
	VMOVDQU        Y1, 32(DI)
	ADDQ           $64, DI
	SUBQ           $64, CX
	CMPQ           CX, $64
	JAE            gmul64

gmul32:
	TESTQ          $32, CX
	JZ             gmul16
	VMOVDQU        (DI), Y0
	VGF2P8AFFINEQB $0, Y8, Y0, Y0
	VMOVDQU        Y0, (DI)
	ADDQ           $32, DI

gmul16:
	TESTQ          $16, CX
	JZ             gmuldone
	VMOVDQU        (DI), X0
	VGF2P8AFFINEQB $0, X8, X0, X0
	VMOVDQU        X0, (DI)

gmuldone:
	VZEROUPPER
	RET

// func addMulSliceGFNI(mat uint64, dst *byte, src *byte, n int)
TEXT ·addMulSliceGFNI(SB), NOSPLIT, $0-32
	MOVQ         dst+8(FP), DI
	MOVQ         src+16(FP), BX
	MOVQ         n+24(FP), CX
	VPBROADCASTQ mat+0(FP), Y8
	CMPQ         CX, $64
	JB           gaddmul32

gaddmul64:
	VMOVDQU        (BX), Y0
	VMOVDQU        32(BX), Y1
	VGF2P8AFFINEQB $0, Y8, Y0, Y0
	VGF2P8AFFINEQB $0, Y8, Y1, Y1
	VPXOR          (DI), Y0, Y0
	VPXOR          32(DI), Y1, Y1
	VMOVDQU        Y0, (DI)
	VMOVDQU        Y1, 32(DI)
	ADDQ           $64, BX
	ADDQ           $64, DI
	SUBQ           $64, CX
	CMPQ           CX, $64
	JAE            gaddmul64

gaddmul32:
	TESTQ          $32, CX
	JZ             gaddmul16
	VMOVDQU        (BX), Y0
	VGF2P8AFFINEQB $0, Y8, Y0, Y0
	VPXOR          (DI), Y0, Y0
	VMOVDQU        Y0, (DI)
	ADDQ           $32, BX
	ADDQ           $32, DI

gaddmul16:
	TESTQ          $16, CX
	JZ             gaddmuldone
	VMOVDQU        (BX), X0
	VGF2P8AFFINEQB $0, X8, X0, X0
	VPXOR          (DI), X0, X0
	VMOVDQU        X0, (DI)

gaddmuldone:
	VZEROUPPER
	RET

// TERM folds one 32-byte column of the current source into accumulator acc:
// load at off from the source base BX plus the stripe offset DX, multiply by
// the matrix in Y8, XOR in.
#define TERM(off, tmp, acc)                 \
	VMOVDQU        off(BX)(DX*1), tmp       \
	VGF2P8AFFINEQB $0, Y8, tmp, tmp         \
	VPXOR          tmp, acc, acc

// func addMulSlicesGFNI(tab *uint64, dst *byte, ks *byte, srcs *[]byte, m int, n int)
//
// dst[i] ^= ks[0]·srcs[0][i] ^ … ^ ks[m-1]·srcs[m-1][i] for i in [0,n). n is
// a positive multiple of 32 and m is at least 1. Each 256-byte stripe of dst
// is loaded into Y0–Y7 once, every source's stripe is multiplied and folded
// in, and the stripe is stored once; the rest, in 32-byte chunks, does the
// same with one accumulator. srcs points at m slice headers (24 bytes each:
// the data pointer first).
TEXT ·addMulSlicesGFNI(SB), NOSPLIT, $0-48
	MOVQ tab+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ ks+16(FP), R8
	MOVQ srcs+24(FP), R9
	MOVQ m+32(FP), R10
	MOVQ n+40(FP), CX
	XORQ DX, DX // offset of the current stripe in dst and every source
	CMPQ CX, $256
	JB   chunk

stripe:
	VMOVDQU (DI)(DX*1), Y0
	VMOVDQU 32(DI)(DX*1), Y1
	VMOVDQU 64(DI)(DX*1), Y2
	VMOVDQU 96(DI)(DX*1), Y3
	VMOVDQU 128(DI)(DX*1), Y4
	VMOVDQU 160(DI)(DX*1), Y5
	VMOVDQU 192(DI)(DX*1), Y6
	VMOVDQU 224(DI)(DX*1), Y7
	MOVQ    R8, R11  // coefficient cursor
	MOVQ    R9, R12  // slice-header cursor
	MOVQ    R10, R13 // sources left

stripeterm:
	MOVBQZX      (R11), AX
	VPBROADCASTQ (SI)(AX*8), Y8
	MOVQ         (R12), BX
	TERM(0, Y9, Y0)
	TERM(32, Y10, Y1)
	TERM(64, Y11, Y2)
	TERM(96, Y12, Y3)
	TERM(128, Y9, Y4)
	TERM(160, Y10, Y5)
	TERM(192, Y11, Y6)
	TERM(224, Y12, Y7)
	INCQ         R11
	ADDQ         $24, R12
	DECQ         R13
	JNZ          stripeterm

	VMOVDQU Y0, (DI)(DX*1)
	VMOVDQU Y1, 32(DI)(DX*1)
	VMOVDQU Y2, 64(DI)(DX*1)
	VMOVDQU Y3, 96(DI)(DX*1)
	VMOVDQU Y4, 128(DI)(DX*1)
	VMOVDQU Y5, 160(DI)(DX*1)
	VMOVDQU Y6, 192(DI)(DX*1)
	VMOVDQU Y7, 224(DI)(DX*1)
	ADDQ    $256, DX
	SUBQ    $256, CX
	CMPQ    CX, $256
	JAE     stripe

chunk:
	TESTQ   CX, CX
	JZ      slicesdone
	VMOVDQU (DI)(DX*1), Y0
	MOVQ    R8, R11
	MOVQ    R9, R12
	MOVQ    R10, R13

chunkterm:
	MOVBQZX      (R11), AX
	VPBROADCASTQ (SI)(AX*8), Y8
	MOVQ         (R12), BX
	TERM(0, Y9, Y0)
	INCQ         R11
	ADDQ         $24, R12
	DECQ         R13
	JNZ          chunkterm

	VMOVDQU Y0, (DI)(DX*1)
	ADDQ    $32, DX
	SUBQ    $32, CX
	JMP     chunk

slicesdone:
	VZEROUPPER
	RET
