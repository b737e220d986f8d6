// Vector kernels for RFFTPlan's radix-4 DIF network.
//
// The AVX pair kernel runs two butterflies per iteration: each 256-bit
// register holds two interleaved complex128 values, so the four
// quarter loads/stores and the butterfly adds map 1:1 onto vector ops.
// Complex twiddle multiplies use the classic shuffle + vaddsubpd
// sequence against lane-duplicated twiddle tables (see
// newStageTwiddlesVec): with u = [ur ui] and w = c + di,
//
//	[ur·c  ui·c] ∓ [ui·d  ur·d]  =  [ur·c−ui·d  ui·c+ur·d]  =  u·w
//
// The kernel performs exactly the flops of the pure-Go loop in
// difStageScalar, in the same order, so band magnitudes are
// bit-identical (intermediate spectra may differ only in the sign of
// zeros, because t3 is formed as -(b-d) swapped rather than (d-b)).

#include "textflag.h"

// signOdd flips the sign of the odd (imaginary) lanes.
DATA signOdd<>+0(SB)/8, $0x0000000000000000
DATA signOdd<>+8(SB)/8, $0x8000000000000000
DATA signOdd<>+16(SB)/8, $0x0000000000000000
DATA signOdd<>+24(SB)/8, $0x8000000000000000
GLOBL signOdd<>(SB), RODATA|NOPTR, $32

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	// CX bit 27 = OSXSAVE, bit 28 = AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	MOVL $0, CX
	XGETBV
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func difStageAVX(z []complex128, twv []float64, span int)
TEXT ·difStageAVX(SB), NOSPLIT, $0-56
	MOVQ z_base+0(FP), SI
	MOVQ z_len+8(FP), CX      // remaining complexes
	MOVQ twv_base+24(FP), BX
	MOVQ span+48(FP), R8      // span in complexes
	MOVQ R8, DX
	SHLQ $2, DX               // quarter stride: span/4 complexes × 16 B
	VMOVUPD signOdd<>(SB), Y8
	MOVQ SI, DI               // current block

block:
	MOVQ DI, R10              // za
	LEAQ (DI)(DX*1), R11      // zb
	LEAQ (R11)(DX*1), R12     // zc
	LEAQ (R12)(DX*1), R13     // zd
	MOVQ BX, R9               // twiddles restart every block
	MOVQ R8, AX
	SHRQ $3, AX               // span/8 = q/2 butterfly pairs

pair:
	VMOVUPD (R10), Y0         // a (two complexes)
	VMOVUPD (R11), Y1         // b
	VMOVUPD (R12), Y2         // c
	VMOVUPD (R13), Y3         // d
	VADDPD  Y2, Y0, Y4        // t0 = a+c
	VSUBPD  Y2, Y0, Y5        // t1 = a-c
	VADDPD  Y3, Y1, Y6        // t2 = b+d
	VSUBPD  Y3, Y1, Y7        // b-d
	VPERMILPD $0x5, Y7, Y7    // swap re/im within each complex
	VXORPD  Y8, Y7, Y7        // t3 = (b-d)·(-i)
	VADDPD  Y6, Y4, Y9        // y0 = t0+t2: twiddle-free
	VMOVUPD Y9, (R10)
	VSUBPD  Y6, Y4, Y9        // u2 = t0-t2
	VADDPD  Y7, Y5, Y10       // u1 = t1+t3
	VSUBPD  Y7, Y5, Y11       // u3 = t1-t3

	// y1 = u1·w1
	VMULPD  (R9), Y10, Y12
	VPERMILPD $0x5, Y10, Y13
	VMULPD  32(R9), Y13, Y13
	VADDSUBPD Y13, Y12, Y12
	VMOVUPD Y12, (R11)

	// y2 = u2·w2
	VMULPD  64(R9), Y9, Y12
	VPERMILPD $0x5, Y9, Y13
	VMULPD  96(R9), Y13, Y13
	VADDSUBPD Y13, Y12, Y12
	VMOVUPD Y12, (R12)

	// y3 = u3·w3
	VMULPD  128(R9), Y11, Y12
	VPERMILPD $0x5, Y11, Y13
	VMULPD  160(R9), Y13, Y13
	VADDSUBPD Y13, Y12, Y12
	VMOVUPD Y12, (R13)

	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $192, R9
	DECQ AX
	JNZ  pair

	LEAQ (DI)(DX*4), DI       // next block
	SUBQ R8, CX
	JNZ  block

	VZEROUPPER
	RET

// The AVX-512 quad kernel is the 512-bit widening of difStageAVX:
// four butterflies per iteration, each 512-bit register holding four
// interleaved complex128 values. EVEX has no VADDSUBPD, so the
// shuffle + vaddsubpd complex multiply becomes shuffle + sign-flip +
// vaddpd — x−y and x+(−y) are the same IEEE operation bit for bit, so
// the kernel still performs exactly the flops of difStageScalar, in
// the same order, and band magnitudes remain bit-identical across the
// scalar, AVX and AVX-512 tiers (intermediate spectra may differ only
// in the sign of zeros, exactly as for difStageAVX).
//
// packMulAVX is the elementwise window multiply of the even/odd pack
// pass (the scalar fused loop in RFFTPlan.pack): dst[i] =
// frame[i]·win[i] reinterpreted as interleaved complex128. Pure
// elementwise multiplies, so it is trivially bit-identical to the
// scalar pack.

// signOdd512 flips the sign of the odd (imaginary) lanes.
DATA signOdd512<>+0(SB)/8, $0x0000000000000000
DATA signOdd512<>+8(SB)/8, $0x8000000000000000
DATA signOdd512<>+16(SB)/8, $0x0000000000000000
DATA signOdd512<>+24(SB)/8, $0x8000000000000000
DATA signOdd512<>+32(SB)/8, $0x0000000000000000
DATA signOdd512<>+40(SB)/8, $0x8000000000000000
DATA signOdd512<>+48(SB)/8, $0x0000000000000000
DATA signOdd512<>+56(SB)/8, $0x8000000000000000
GLOBL signOdd512<>(SB), RODATA|NOPTR, $64

// signEven512 flips the sign of the even (real) lanes; XOR with it then
// VADDPD reproduces VADDSUBPD (subtract even, add odd) bit for bit.
DATA signEven512<>+0(SB)/8, $0x8000000000000000
DATA signEven512<>+8(SB)/8, $0x0000000000000000
DATA signEven512<>+16(SB)/8, $0x8000000000000000
DATA signEven512<>+24(SB)/8, $0x0000000000000000
DATA signEven512<>+32(SB)/8, $0x8000000000000000
DATA signEven512<>+40(SB)/8, $0x0000000000000000
DATA signEven512<>+48(SB)/8, $0x8000000000000000
DATA signEven512<>+56(SB)/8, $0x0000000000000000
GLOBL signEven512<>(SB), RODATA|NOPTR, $64

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	// Leaf 1: OSXSAVE (bit 27) and AVX (bit 28) in CX.
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no512
	// Leaf 7 subleaf 0: AVX512F (bit 16) and AVX512DQ (bit 17) in BX
	// (DQ covers the EVEX VXORPD the kernels use).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x00030000, BX
	CMPL BX, $0x00030000
	JNE  no512
	// XCR0: SSE (1), AVX (2), opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7)
	// must all be OS-enabled for full 512-bit state.
	MOVL $0, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// func difStageAVX512(z []complex128, tzv []float64, span int)
TEXT ·difStageAVX512(SB), NOSPLIT, $0-56
	MOVQ z_base+0(FP), SI
	MOVQ z_len+8(FP), CX      // remaining complexes
	MOVQ tzv_base+24(FP), BX
	MOVQ span+48(FP), R8      // span in complexes
	MOVQ R8, DX
	SHLQ $2, DX               // quarter stride: span/4 complexes × 16 B
	VMOVUPD signOdd512<>(SB), Z8
	VMOVUPD signEven512<>(SB), Z9
	MOVQ SI, DI               // current block

block:
	MOVQ DI, R10              // za
	LEAQ (DI)(DX*1), R11      // zb
	LEAQ (R11)(DX*1), R12     // zc
	LEAQ (R12)(DX*1), R13     // zd
	MOVQ BX, R9               // twiddles restart every block
	MOVQ R8, AX
	SHRQ $4, AX               // span/16 = q/4 butterfly quads

quad:
	VMOVUPD (R10), Z0         // a (four complexes)
	VMOVUPD (R11), Z1         // b
	VMOVUPD (R12), Z2         // c
	VMOVUPD (R13), Z3         // d
	VADDPD  Z2, Z0, Z4        // t0 = a+c
	VSUBPD  Z2, Z0, Z5        // t1 = a-c
	VADDPD  Z3, Z1, Z6        // t2 = b+d
	VSUBPD  Z3, Z1, Z7        // b-d
	VPERMILPD $0x55, Z7, Z7   // swap re/im within each complex
	VXORPD  Z8, Z7, Z7        // t3 = (b-d)·(-i)
	VADDPD  Z6, Z4, Z10       // y0 = t0+t2: twiddle-free
	VMOVUPD Z10, (R10)
	VSUBPD  Z6, Z4, Z10       // u2 = t0-t2
	VADDPD  Z7, Z5, Z11       // u1 = t1+t3
	VSUBPD  Z7, Z5, Z12       // u3 = t1-t3

	// y1 = u1·w1
	VMULPD  (R9), Z11, Z13
	VPERMILPD $0x55, Z11, Z14
	VMULPD  64(R9), Z14, Z14
	VXORPD  Z9, Z14, Z14
	VADDPD  Z14, Z13, Z13
	VMOVUPD Z13, (R11)

	// y2 = u2·w2
	VMULPD  128(R9), Z10, Z13
	VPERMILPD $0x55, Z10, Z14
	VMULPD  192(R9), Z14, Z14
	VXORPD  Z9, Z14, Z14
	VADDPD  Z14, Z13, Z13
	VMOVUPD Z13, (R12)

	// y3 = u3·w3
	VMULPD  256(R9), Z12, Z13
	VPERMILPD $0x55, Z12, Z14
	VMULPD  320(R9), Z14, Z14
	VXORPD  Z9, Z14, Z14
	VADDPD  Z14, Z13, Z13
	VMOVUPD Z13, (R13)

	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $384, R9
	DECQ AX
	JNZ  quad

	LEAQ (DI)(DX*4), DI       // next block
	SUBQ R8, CX
	JNZ  block

	VZEROUPPER
	RET

// permP2/permQ2 are VPERMT2PD index vectors for the fused span-16/4
// kernel: with S = [t0 t2 t0' t2'] as the first table and D/X as the
// second (indices 8..15), they gather [t0 t1 t0' t1'] and [t2 t3 t2' t3']
// (quarters are complex128 values, i.e. index pairs).
DATA permP2<>+0(SB)/8, $0
DATA permP2<>+8(SB)/8, $1
DATA permP2<>+16(SB)/8, $8
DATA permP2<>+24(SB)/8, $9
DATA permP2<>+32(SB)/8, $4
DATA permP2<>+40(SB)/8, $5
DATA permP2<>+48(SB)/8, $12
DATA permP2<>+56(SB)/8, $13
GLOBL permP2<>(SB), RODATA|NOPTR, $64

DATA permQ2<>+0(SB)/8, $2
DATA permQ2<>+8(SB)/8, $3
DATA permQ2<>+16(SB)/8, $10
DATA permQ2<>+24(SB)/8, $11
DATA permQ2<>+32(SB)/8, $6
DATA permQ2<>+40(SB)/8, $7
DATA permQ2<>+48(SB)/8, $14
DATA permQ2<>+56(SB)/8, $15
GLOBL permQ2<>(SB), RODATA|NOPTR, $64

// func difStage16x4AVX512(z []complex128, tzv []float64)
//
// Fused tail: one radix-4 DIF stage of span 16 followed immediately by
// the multiplication-free span-4 stage, per 16-complex block, entirely
// in registers. The four span-16 output vectors y0..y3 are exactly the
// four span-4 blocks of the next stage, so fusing skips a full
// load/store pass over the plane plus the scalar span-4 loop. tzv is
// the span-16 quad twiddle table (48 doubles, one quad per block,
// reused for every block). len(z) must be a multiple of 16.
//
// The span-4 butterflies run pairwise over two block registers x0, x1
// (each [a b c d]):
//
//	P = [a0 b0 a1 b1]   Q = [c0 d0 c1 d1]        (128-bit shuffles)
//	S = P+Q = [t0 t2 t0' t2']   D = P-Q = [t1 (b-d) t1' (b-d)']
//	X = swap(D) ⊕ signOdd: quarters 1,3 hold t3 = (b-d)·(-i)
//	P2 = [t0 t1 t0' t1']   Q2 = [t2 t3 t2' t3']  (two-table permutes)
//	out = [P2+Q2 | P2-Q2] interleaved back to [y0 y1 y2 y3] per block
//
// — the same adds, subtracts and (-i) formation as the scalar span-4
// loop, in the same order, so magnitudes stay bit-identical.
TEXT ·difStage16x4AVX512(SB), NOSPLIT, $0-48
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	MOVQ tzv_base+24(FP), R9
	VMOVUPD signOdd512<>(SB), Z8
	VMOVUPD signEven512<>(SB), Z9
	VMOVUPD permP2<>(SB), Z20
	VMOVUPD permQ2<>(SB), Z21
	SHRQ $4, CX               // 16-complex blocks

blk16:
	VMOVUPD (DI), Z0          // a: complexes 0..3
	VMOVUPD 64(DI), Z1        // b: 4..7
	VMOVUPD 128(DI), Z2       // c: 8..11
	VMOVUPD 192(DI), Z3       // d: 12..15

	// Span-16 stage: one butterfly quad, twiddles from tzv.
	VADDPD  Z2, Z0, Z4        // t0 = a+c
	VSUBPD  Z2, Z0, Z5        // t1 = a-c
	VADDPD  Z3, Z1, Z6        // t2 = b+d
	VSUBPD  Z3, Z1, Z7        // b-d
	VPERMILPD $0x55, Z7, Z7
	VXORPD  Z8, Z7, Z7        // t3 = (b-d)·(-i)
	VADDPD  Z6, Z4, Z0        // y0 = t0+t2
	VSUBPD  Z6, Z4, Z10       // u2
	VADDPD  Z7, Z5, Z11       // u1
	VSUBPD  Z7, Z5, Z12       // u3

	VMULPD  (R9), Z11, Z13    // y1 = u1·w1
	VPERMILPD $0x55, Z11, Z14
	VMULPD  64(R9), Z14, Z14
	VXORPD  Z9, Z14, Z14
	VADDPD  Z14, Z13, Z1

	VMULPD  128(R9), Z10, Z13 // y2 = u2·w2
	VPERMILPD $0x55, Z10, Z14
	VMULPD  192(R9), Z14, Z14
	VXORPD  Z9, Z14, Z14
	VADDPD  Z14, Z13, Z2

	VMULPD  256(R9), Z12, Z13 // y3 = u3·w3
	VPERMILPD $0x55, Z12, Z14
	VMULPD  320(R9), Z14, Z14
	VXORPD  Z9, Z14, Z14
	VADDPD  Z14, Z13, Z3

	// Span-4 stage on register pair (Z0, Z1): blocks 0..3 and 4..7.
	VSHUFF64X2 $0x44, Z1, Z0, Z4   // P = [a0 b0 a1 b1]
	VSHUFF64X2 $0xEE, Z1, Z0, Z5   // Q = [c0 d0 c1 d1]
	VADDPD  Z5, Z4, Z6             // S
	VSUBPD  Z5, Z4, Z7             // D
	VPERMILPD $0x55, Z7, Z10
	VXORPD  Z8, Z10, Z10           // X
	VMOVAPD Z6, Z11
	VPERMT2PD Z7, Z20, Z11         // P2 = [t0 t1 t0' t1']
	VMOVAPD Z6, Z12
	VPERMT2PD Z10, Z21, Z12        // Q2 = [t2 t3 t2' t3']
	VADDPD  Z12, Z11, Z13          // [y0 y1 y0' y1']
	VSUBPD  Z12, Z11, Z14          // [y2 y3 y2' y3']
	VSHUFF64X2 $0x44, Z14, Z13, Z4
	VSHUFF64X2 $0xEE, Z14, Z13, Z5
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)

	// Span-4 stage on register pair (Z2, Z3): blocks 8..11 and 12..15.
	VSHUFF64X2 $0x44, Z3, Z2, Z4
	VSHUFF64X2 $0xEE, Z3, Z2, Z5
	VADDPD  Z5, Z4, Z6
	VSUBPD  Z5, Z4, Z7
	VPERMILPD $0x55, Z7, Z10
	VXORPD  Z8, Z10, Z10
	VMOVAPD Z6, Z11
	VPERMT2PD Z7, Z20, Z11
	VMOVAPD Z6, Z12
	VPERMT2PD Z10, Z21, Z12
	VADDPD  Z12, Z11, Z13
	VSUBPD  Z12, Z11, Z14
	VSHUFF64X2 $0x44, Z14, Z13, Z4
	VSHUFF64X2 $0xEE, Z14, Z13, Z5
	VMOVUPD Z4, 128(DI)
	VMOVUPD Z5, 192(DI)

	ADDQ $256, DI
	DECQ CX
	JNZ  blk16

	VZEROUPPER
	RET

// func packMulAVX(dst []complex128, frame, win []float64)
TEXT ·packMulAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ frame_base+24(FP), SI
	MOVQ frame_len+32(FP), CX // doubles; caller guarantees CX % 8 == 0
	MOVQ win_base+48(FP), BX
	SHRQ $3, CX               // 8 doubles per iteration

pack:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD  (BX), Y0, Y0
	VMULPD  32(BX), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ CX
	JNZ  pack

	VZEROUPPER
	RET
