//go:build amd64 && !gf256ref

#include "textflag.h"

// GF(2^8) slice kernels via AVX2 VPSHUFB.
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
