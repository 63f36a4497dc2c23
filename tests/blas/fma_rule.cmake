# Fails unless the BLAS library fuses multiply-adds exactly where
# DESIGN.md decision 12 puts them: every gemm k step is one fused
# multiply-add, and no other product and sum is fused. A host without
# AVX-512 never runs the avx512f version, so only this static check sees
# that version lose its fusion or gain contraction elsewhere. The rule,
# per function of the disassembly:
#   - the avx512f and avx2 builds of the micro-kernel (gemm_<isa>), the
#     small gemm (gemm_small_<isa>) and the column sweep (column_<isa>),
#     both element types, each contain fused instructions and no call to
#     libm's fma/fmaf (FACT's small gemms must not become libm calls);
#   - no other function fuses: not write_back (inlined into level3.cpp's
#     macro-kernel and trsm updates), not the ger/scal/iamax or trsm
#     leaves of any version, not the level-1/2 objects;
#   - every function that touches a ymm/zmm register executes vzeroupper,
#     so the baseline (legacy-SSE) code that runs after an avx2/avx512f
#     body pays no transition penalty (microkernel.hpp, clear_upper).
#   cmake -DOBJDUMP=<objdump> -DLIB=<libhplx_blas.a> -P fma_rule.cmake
cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)
execute_process(COMMAND ${OBJDUMP} -dr -C --no-show-raw-insn ${LIB}
                OUTPUT_VARIABLE disasm RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIB} exited with ${rc}")
endif()
# One list element per line: neutralize the list separator and the
# brackets that would nest list elements.
string(REPLACE ";" "," disasm "${disasm}")
string(REPLACE "[" "(" disasm "${disasm}")
string(REPLACE "]" ")" disasm "${disasm}")
string(REPLACE "\n" ";" lines "${disasm}")

set(fused_body "::(gemm|gemm_small|column)_(avx512f|avx2)<(double|float)>")
set(fn "")
set(bodies "")      # fused bodies seen
set(fused_ok "")    # fused bodies with a fused instruction
set(stray "")       # other functions with a fused instruction
set(libm "")        # fused bodies that call libm's fma
set(wide "")        # functions touching ymm/zmm registers
set(cleared "")     # functions executing vzeroupper
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-f]+ <(.*)>:$")
    set(fn "${CMAKE_MATCH_1}")
    if(fn MATCHES "${fused_body}")
      list(APPEND bodies "${fn}")
    endif()
    continue()
  endif()
  if(line MATCHES "%[yz]mm")
    list(APPEND wide "${fn}")
  endif()
  if(line MATCHES "\tvzeroupper")
    list(APPEND cleared "${fn}")
  elseif(line MATCHES "\tv?fn?m(add|sub)[a-z0-9]*")
    if(fn MATCHES "${fused_body}")
      list(APPEND fused_ok "${fn}")
    else()
      list(APPEND stray "${fn}: ${CMAKE_MATCH_0}")
    endif()
  elseif(line MATCHES "R_X86_64_PLT32\tfmaf?-" AND fn MATCHES "${fused_body}")
    list(APPEND libm "${fn}")
  endif()
endforeach()

list(REMOVE_DUPLICATES bodies)
list(LENGTH bodies nbodies)
# 3 bodies x 2 ISAs x 2 element types.
if(NOT nbodies EQUAL 12)
  message(FATAL_ERROR "found ${nbodies} of the 12 avx512f/avx2 gemm, "
                      "gemm_small and column bodies in ${LIB}: ${bodies}")
endif()
set(errors "")
foreach(body IN LISTS bodies)
  if(NOT body IN_LIST fused_ok)
    string(APPEND errors "\n  no fused multiply-add in ${body}")
  endif()
endforeach()
if(libm)
  list(REMOVE_DUPLICATES libm)
  foreach(body IN LISTS libm)
    string(APPEND errors "\n  libm fma call in ${body}")
  endforeach()
endif()
list(REMOVE_DUPLICATES wide)
foreach(body IN LISTS wide)
  if(NOT body IN_LIST cleared)
    string(APPEND errors "\n  ymm/zmm registers but no vzeroupper in ${body}")
  endif()
endforeach()
if(stray)
  list(REMOVE_DUPLICATES stray)
  foreach(hit IN LISTS stray)
    string(REPLACE "\t" "" hit "${hit}")
    string(APPEND errors "\n  fused multiply-add outside a gemm body: ${hit}")
  endforeach()
endif()
if(errors)
  message(FATAL_ERROR "${LIB} breaks the fusion rule:${errors}")
endif()
list(LENGTH wide nwide)
message(STATUS "fused multiply-adds only and always in the ${nbodies} "
               "avx512f/avx2 gemm bodies of ${LIB}; all ${nwide} functions "
               "on ymm/zmm registers clear them with vzeroupper")
