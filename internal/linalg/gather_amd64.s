#include "textflag.h"

// AVX2 bodies of GatherAXPY and ScatterAXPY (gather.go). One register
// lane is one output unit's chain: every product is a VMULPD (VMULSD) and
// every sum a VADDPD (VADDSD), in index order, so each lane rounds
// exactly as the scalar loop does. There is no fused multiply-add and no
// reassociation.
//
// A body holds the lanes of z or d it owns for the whole walk over idx:
// the 32-lane bodies seven full YMM registers (Y0-Y6) and a last register
// (Y7) of 1-4 lanes, the 4-lane bodies that last register alone (Y0).
// Rows are packed back to back, so the lane after a row's last is the
// next row's first: the last register is loaded, multiplied, added and
// stored at its exact width — a YMM for four lanes, an XMM for two, a
// scalar for one, an XMM and the scalar X12 for three — and never touches
// a lane it does not own. Each width has its own loop, so the walk never
// branches on it.
//
// Registers: SI matrix base (at the body's first lane), DX row stride in
// bytes, R8 row count, BX idx base, CX len(idx) (never 0), R9 val base,
// AX k, R10 the address of row idx[k], R11 the lanes the body owns, DI
// their address in z or d, Y8 val[k] broadcast to every lane, Y9-Y11
// products. X15, the Go ABI's zero register, is left alone.

// ROW starts step k: it loads idx[k], leaves for bad unless it is below
// the row count (a negative index included), points R10 at that row and
// broadcasts val[k].
#define ROW \
	MOVQ (BX)(AX*8), R10; \
	CMPQ R10, R8; \
	JAE bad; \
	IMULQ DX, R10; \
	ADDQ SI, R10; \
	VBROADCASTSD (R9)(AX*8), Y8

// NEXT ends step k and goes back to loop while steps are left.
#define NEXT(loop) \
	INCQ AX; \
	CMPQ AX, CX; \
	JNE loop

// GATHER7 adds row·val[k] to the seven full registers; GATHER4, GATHER2
// and GATHER1 add it to a last register of that many lanes at byte
// offset off of the row.
#define GATHER7 \
	VMULPD 0(R10), Y8, Y9; VADDPD Y9, Y0, Y0; \
	VMULPD 32(R10), Y8, Y10; VADDPD Y10, Y1, Y1; \
	VMULPD 64(R10), Y8, Y11; VADDPD Y11, Y2, Y2; \
	VMULPD 96(R10), Y8, Y9; VADDPD Y9, Y3, Y3; \
	VMULPD 128(R10), Y8, Y10; VADDPD Y10, Y4, Y4; \
	VMULPD 160(R10), Y8, Y11; VADDPD Y11, Y5, Y5; \
	VMULPD 192(R10), Y8, Y9; VADDPD Y9, Y6, Y6
#define GATHER4(off, r) VMULPD off(R10), Y8, Y10; VADDPD Y10, r, r
#define GATHER2(off, r) VMULPD off(R10), X8, X10; VADDPD X10, r, r
#define GATHER1(off, r) VMULSD off(R10), X8, X11; VADDSD X11, r, r

// SCATTER7 adds the seven full registers times val[k] to the row;
// SCATTER4, SCATTER2 and SCATTER1 add a last register of that many lanes
// times val[k] at byte offset off of the row.
#define SCATTER7 \
	VMULPD Y0, Y8, Y9; VADDPD 0(R10), Y9, Y9; VMOVUPD Y9, 0(R10); \
	VMULPD Y1, Y8, Y10; VADDPD 32(R10), Y10, Y10; VMOVUPD Y10, 32(R10); \
	VMULPD Y2, Y8, Y11; VADDPD 64(R10), Y11, Y11; VMOVUPD Y11, 64(R10); \
	VMULPD Y3, Y8, Y9; VADDPD 96(R10), Y9, Y9; VMOVUPD Y9, 96(R10); \
	VMULPD Y4, Y8, Y10; VADDPD 128(R10), Y10, Y10; VMOVUPD Y10, 128(R10); \
	VMULPD Y5, Y8, Y11; VADDPD 160(R10), Y11, Y11; VMOVUPD Y11, 160(R10); \
	VMULPD Y6, Y8, Y9; VADDPD 192(R10), Y9, Y9; VMOVUPD Y9, 192(R10)
#define SCATTER4(off, r) VMULPD r, Y8, Y10; VADDPD off(R10), Y10, Y10; VMOVUPD Y10, off(R10)
#define SCATTER2(off, r) VMULPD r, X8, X10; VADDPD off(R10), X10, X10; VMOVUPD X10, off(R10)
#define SCATTER1(off, r) VMULSD r, X8, X11; VADDSD off(R10), X11, X11; VMOVSD X11, off(R10)

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

// func gatherAXPY32(z, w []float64, stride, rows int, idx []int, val []float64) (ok bool)
TEXT ·gatherAXPY32(SB), NOSPLIT, $0-113
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), R11
	MOVQ w_base+24(FP), SI
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
	XORQ AX, AX
	CMPQ R11, $30
	JLT last1
	JEQ last2
	CMPQ R11, $31
	JEQ last3

	VMOVUPD 224(DI), Y7
loop4:
	ROW
	GATHER7
	GATHER4(224, Y7)
	NEXT(loop4)
	VMOVUPD Y7, 224(DI)
	JMP done

last3:
	VMOVUPD 224(DI), X7
	VMOVSD 240(DI), X12
loop3:
	ROW
	GATHER7
	GATHER2(224, X7)
	GATHER1(240, X12)
	NEXT(loop3)
	VMOVUPD X7, 224(DI)
	VMOVSD X12, 240(DI)
	JMP done

last2:
	VMOVUPD 224(DI), X7
loop2:
	ROW
	GATHER7
	GATHER2(224, X7)
	NEXT(loop2)
	VMOVUPD X7, 224(DI)
	JMP done

last1:
	VMOVSD 224(DI), X7
loop1:
	ROW
	GATHER7
	GATHER1(224, X7)
	NEXT(loop1)
	VMOVSD X7, 224(DI)

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+112(FP)
	RET

// func gatherAXPY4(z, w []float64, stride, rows int, idx []int, val []float64) (ok bool)
TEXT ·gatherAXPY4(SB), NOSPLIT, $0-113
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), R11
	MOVQ w_base+24(FP), SI
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ rows+56(FP), R8
	MOVQ idx_base+64(FP), BX
	MOVQ idx_len+72(FP), CX
	MOVQ val_base+88(FP), R9
	XORQ AX, AX
	CMPQ R11, $2
	JLT last1
	JEQ last2
	CMPQ R11, $3
	JEQ last3

	VMOVUPD 0(DI), Y0
loop4:
	ROW
	GATHER4(0, Y0)
	NEXT(loop4)
	VMOVUPD Y0, 0(DI)
	JMP done

last3:
	VMOVUPD 0(DI), X0
	VMOVSD 16(DI), X12
loop3:
	ROW
	GATHER2(0, X0)
	GATHER1(16, X12)
	NEXT(loop3)
	VMOVUPD X0, 0(DI)
	VMOVSD X12, 16(DI)
	JMP done

last2:
	VMOVUPD 0(DI), X0
loop2:
	ROW
	GATHER2(0, X0)
	NEXT(loop2)
	VMOVUPD X0, 0(DI)
	JMP done

last1:
	VMOVSD 0(DI), X0
loop1:
	ROW
	GATHER1(0, X0)
	NEXT(loop1)
	VMOVSD X0, 0(DI)

done:
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+112(FP)
	RET

// func scatterAXPY32(g []float64, stride int, d []float64, rows int, idx []int, val []float64) (ok bool)
TEXT ·scatterAXPY32(SB), NOSPLIT, $0-113
	MOVQ g_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ d_base+32(FP), DI
	MOVQ d_len+40(FP), R11
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
	XORQ AX, AX
	CMPQ R11, $30
	JLT last1
	JEQ last2
	CMPQ R11, $31
	JEQ last3

	VMOVUPD 224(DI), Y7
loop4:
	ROW
	SCATTER7
	SCATTER4(224, Y7)
	NEXT(loop4)
	JMP done

last3:
	VMOVUPD 224(DI), X7
	VMOVSD 240(DI), X12
loop3:
	ROW
	SCATTER7
	SCATTER2(224, X7)
	SCATTER1(240, X12)
	NEXT(loop3)
	JMP done

last2:
	VMOVUPD 224(DI), X7
loop2:
	ROW
	SCATTER7
	SCATTER2(224, X7)
	NEXT(loop2)
	JMP done

last1:
	VMOVSD 224(DI), X7
loop1:
	ROW
	SCATTER7
	SCATTER1(224, X7)
	NEXT(loop1)

done:
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+112(FP)
	RET

// func scatterAXPY4(g []float64, stride int, d []float64, rows int, idx []int, val []float64) (ok bool)
TEXT ·scatterAXPY4(SB), NOSPLIT, $0-113
	MOVQ g_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ d_base+32(FP), DI
	MOVQ d_len+40(FP), R11
	MOVQ rows+56(FP), R8
	MOVQ idx_base+64(FP), BX
	MOVQ idx_len+72(FP), CX
	MOVQ val_base+88(FP), R9
	XORQ AX, AX
	CMPQ R11, $2
	JLT last1
	JEQ last2
	CMPQ R11, $3
	JEQ last3

	VMOVUPD 0(DI), Y0
loop4:
	ROW
	SCATTER4(0, Y0)
	NEXT(loop4)
	JMP done

last3:
	VMOVUPD 0(DI), X0
	VMOVSD 16(DI), X12
loop3:
	ROW
	SCATTER2(0, X0)
	SCATTER1(16, X12)
	NEXT(loop3)
	JMP done

last2:
	VMOVUPD 0(DI), X0
loop2:
	ROW
	SCATTER2(0, X0)
	NEXT(loop2)
	JMP done

last1:
	VMOVSD 0(DI), X0
loop1:
	ROW
	SCATTER1(0, X0)
	NEXT(loop1)

done:
	VZEROUPPER
	MOVB $1, ok+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+112(FP)
	RET
