# Fails if the BLAS library contains a fused multiply-add instruction.
# Every kernel version must keep products and sums separate so results stay
# bitwise identical across versions and against gemm_small; a host without
# AVX-512 never runs the avx512f version, so only this static check sees
# contraction creep into it.
#   cmake -DOBJDUMP=<objdump> -DLIB=<libhplx_blas.a> -P no_fma.cmake
execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${LIB}
                OUTPUT_VARIABLE disasm RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIB} exited with ${rc}")
endif()
# Guard against passing on an empty or unreadable disassembly.
if(NOT disasm MATCHES "\tv?mulp[sd]")
  message(FATAL_ERROR "no packed multiply in ${LIB}; wrong library?")
endif()
string(REGEX MATCHALL "\tvfn?m(add|sub)[a-z0-9]*" fused "${disasm}")
list(LENGTH fused count)
if(count GREATER 0)
  list(REMOVE_DUPLICATES fused)
  string(REPLACE "\t" "" fused "${fused}")
  message(FATAL_ERROR "${count} fused multiply-add instruction(s) in ${LIB}: "
                      "${fused}. Build with -ffp-contract=off.")
endif()
message(STATUS "no fused multiply-add in ${LIB}")
