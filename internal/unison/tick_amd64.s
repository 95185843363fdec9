#include "textflag.h"

// func hasAVX2() bool
// CPUID leaf 1 must report OSXSAVE, XCR0 must enable the XMM and YMM
// state (bits 1 and 2), and CPUID leaf 7 must report AVX2 (EBX bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// func tickAVX2(st []int64, k int64)
// Four lanes per YMM register, four registers (16 records) per
// iteration: r+1 is r minus all ones, the keep mask is K > r+1, and
// r+1 AND the mask is the tick.
TEXT ·tickAVX2(SB), NOSPLIT, $0-32
	MOVQ         st_base+0(FP), DI
	MOVQ         st_len+8(FP), CX
	SHRQ         $4, CX
	JZ           done
	VPBROADCASTQ k+24(FP), Y0
	VPCMPEQQ     Y1, Y1, Y1

loop:
	VMOVDQU  (DI), Y2
	VMOVDQU  32(DI), Y3
	VMOVDQU  64(DI), Y4
	VMOVDQU  96(DI), Y5
	VPSUBQ   Y1, Y2, Y2
	VPSUBQ   Y1, Y3, Y3
	VPSUBQ   Y1, Y4, Y4
	VPSUBQ   Y1, Y5, Y5
	VPCMPGTQ Y2, Y0, Y6
	VPCMPGTQ Y3, Y0, Y7
	VPCMPGTQ Y4, Y0, Y8
	VPCMPGTQ Y5, Y0, Y9
	VPAND    Y6, Y2, Y2
	VPAND    Y7, Y3, Y3
	VPAND    Y8, Y4, Y4
	VPAND    Y9, Y5, Y5
	VMOVDQU  Y2, (DI)
	VMOVDQU  Y3, 32(DI)
	VMOVDQU  Y4, 64(DI)
	VMOVDQU  Y5, 96(DI)
	ADDQ     $128, DI
	DECQ     CX
	JNZ      loop
	VZEROUPPER

done:
	RET
