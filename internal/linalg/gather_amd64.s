#include "textflag.h"

// AVX2 bodies of GatherAXPY and ScatterAXPY (gather.go). One YMM lane is
// one output unit's chain: every product is a VMULPD and every sum a
// VADDPD, in index order, so each lane rounds exactly as the scalar loop
// does. There is no fused multiply-add and no reassociation.
//
// Registers: SI matrix base, DX row stride in bytes, R8 row count, BX idx
// base, CX len(idx), R9 val base, AX k, R10 the address of row idx[k],
// Y8 val[k] broadcast to every lane, Y0-Y7 (Y0 alone in the 4-lane
// bodies) the lanes held for the walk (z or d, DI their address), Y9-Y14
// products. X15, the Go ABI's zero register, is left alone.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
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

// func gatherAXPY32(z, wT []float64, stride, rows int, idx []int, val []float64) (ok bool)
TEXT ·gatherAXPY32(SB), NOSPLIT, $0-113
	MOVQ z_base+0(FP), DI
	MOVQ wT_base+24(FP), SI
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ rows+56(FP), R8
	MOVQ idx_base+64(FP), BX
	MOVQ idx_len+72(FP), CX
	MOVQ val_base+88(FP), R9
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JEQ done
	MOVQ (BX)(AX*8), R10
	CMPQ R10, R8
	JAE bad
	IMULQ DX, R10
	ADDQ SI, R10
	VBROADCASTSD (R9)(AX*8), Y8
	VMULPD 0(R10), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R10), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R10), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R10), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R10), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(R10), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(R10), Y8, Y9
	VADDPD Y9, Y6, Y6
	VMULPD 224(R10), Y8, Y9
	VADDPD Y9, Y7, Y7
	INCQ AX
	JMP loop

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+112(FP)
	RET

// func gatherAXPY4(z, wT []float64, stride, rows int, idx []int, val []float64) (ok bool)
TEXT ·gatherAXPY4(SB), NOSPLIT, $0-113
	MOVQ z_base+0(FP), DI
	MOVQ wT_base+24(FP), SI
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ rows+56(FP), R8
	MOVQ idx_base+64(FP), BX
	MOVQ idx_len+72(FP), CX
	MOVQ val_base+88(FP), R9
	VMOVUPD 0(DI), Y0
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JEQ done
	MOVQ (BX)(AX*8), R10
	CMPQ R10, R8
	JAE bad
	IMULQ DX, R10
	ADDQ SI, R10
	VBROADCASTSD (R9)(AX*8), Y8
	VMULPD 0(R10), Y8, Y9
	VADDPD Y9, Y0, Y0
	INCQ AX
	JMP loop

done:
	VMOVUPD Y0, 0(DI)
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+112(FP)
	RET

// func scatterAXPY32(gT []float64, stride int, d []float64, rows int, idx []int, val []float64) (ok bool)
TEXT ·scatterAXPY32(SB), NOSPLIT, $0-113
	MOVQ gT_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ d_base+32(FP), DI
	MOVQ rows+56(FP), R8
	MOVQ idx_base+64(FP), BX
	MOVQ idx_len+72(FP), CX
	MOVQ val_base+88(FP), R9
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JEQ done
	MOVQ (BX)(AX*8), R10
	CMPQ R10, R8
	JAE bad
	IMULQ DX, R10
	ADDQ SI, R10
	VBROADCASTSD (R9)(AX*8), Y8
	VMULPD Y0, Y8, Y9
	VADDPD 0(R10), Y9, Y9
	VMOVUPD Y9, 0(R10)
	VMULPD Y1, Y8, Y10
	VADDPD 32(R10), Y10, Y10
	VMOVUPD Y10, 32(R10)
	VMULPD Y2, Y8, Y11
	VADDPD 64(R10), Y11, Y11
	VMOVUPD Y11, 64(R10)
	VMULPD Y3, Y8, Y12
	VADDPD 96(R10), Y12, Y12
	VMOVUPD Y12, 96(R10)
	VMULPD Y4, Y8, Y13
	VADDPD 128(R10), Y13, Y13
	VMOVUPD Y13, 128(R10)
	VMULPD Y5, Y8, Y14
	VADDPD 160(R10), Y14, Y14
	VMOVUPD Y14, 160(R10)
	VMULPD Y6, Y8, Y9
	VADDPD 192(R10), Y9, Y9
	VMOVUPD Y9, 192(R10)
	VMULPD Y7, Y8, Y9
	VADDPD 224(R10), Y9, Y9
	VMOVUPD Y9, 224(R10)
	INCQ AX
	JMP loop

done:
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+112(FP)
	RET

// func scatterAXPY4(gT []float64, stride int, d []float64, rows int, idx []int, val []float64) (ok bool)
TEXT ·scatterAXPY4(SB), NOSPLIT, $0-113
	MOVQ gT_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ d_base+32(FP), DI
	MOVQ rows+56(FP), R8
	MOVQ idx_base+64(FP), BX
	MOVQ idx_len+72(FP), CX
	MOVQ val_base+88(FP), R9
	VMOVUPD 0(DI), Y0
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JEQ done
	MOVQ (BX)(AX*8), R10
	CMPQ R10, R8
	JAE bad
	IMULQ DX, R10
	ADDQ SI, R10
	VBROADCASTSD (R9)(AX*8), Y8
	VMULPD Y0, Y8, Y9
	VADDPD 0(R10), Y9, Y9
	VMOVUPD Y9, 0(R10)
	INCQ AX
	JMP loop

done:
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+112(FP)
	RET
