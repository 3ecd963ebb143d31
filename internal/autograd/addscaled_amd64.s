#include "textflag.h"

// func addScaledVector(dst, src, c []float64, off []int)
//
// dst[j] += c[0]·src[off[0]+j], then += c[1]·src[off[1]+j], … for every
// j, four outputs per ymm lane group: each product is rounded (VMULPD)
// before it is added (VADDPD), exactly as the portable loop does, and no
// VFMADD ever fuses the two. Column blocks of 16, then 8, then 4 outputs
// keep their running sums in ymm registers across all of the call's
// terms. The caller guarantees len(dst)%4 == 0, len(c) >= 1,
// len(off) == len(c) and 0 <= off[t] <= len(src)-len(dst).
TEXT ·addScaledVector(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	MOVQ c_base+48(FP), R8
	MOVQ c_len+56(FP), CX
	MOVQ off_base+72(FP), R9

cols16:
	CMPQ DX, $16
	JLT  cols8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ BX, BX

terms16:
	MOVQ         (R9)(BX*8), AX
	LEAQ         (SI)(AX*8), AX
	VBROADCASTSD (R8)(BX*8), Y4
	VMULPD       (AX), Y4, Y5
	VMULPD       32(AX), Y4, Y6
	VMULPD       64(AX), Y4, Y7
	VMULPD       96(AX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	INCQ         BX
	CMPQ         BX, CX
	JLT          terms16

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, DX
	JMP     cols16

cols8:
	CMPQ DX, $8
	JLT  cols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	XORQ BX, BX

terms8:
	MOVQ         (R9)(BX*8), AX
	LEAQ         (SI)(AX*8), AX
	VBROADCASTSD (R8)(BX*8), Y4
	VMULPD       (AX), Y4, Y5
	VMULPD       32(AX), Y4, Y6
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	INCQ         BX
	CMPQ         BX, CX
	JLT          terms8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $8, DX

cols4:
	CMPQ DX, $4
	JLT  done
	VMOVUPD (DI), Y0
	XORQ BX, BX

terms4:
	MOVQ         (R9)(BX*8), AX
	VBROADCASTSD (R8)(BX*8), Y4
	VMULPD       (SI)(AX*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	INCQ         BX
	CMPQ         BX, CX
	JLT          terms4

	VMOVUPD Y0, (DI)

done:
	VZEROUPPER
	RET

// func cpuid1ECX() (ecx uint32)
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ecx+0(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
