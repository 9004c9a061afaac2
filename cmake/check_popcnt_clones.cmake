# Test-time script behind the build.popcnt_clones CTest entry.
#
# The locate ring (FmIndex::locateRows) and the staged search (the span
# overload of ExmaTable::search) are compiled as POPCNT and baseline
# clones, one picked per process at load time (EXMA_POPCNT_CLONES in
# src/common/branchless.hh). The dispatch only pays if the rank code
# under each entry point is inlined into its clones: otherwise the
# POPCNT clone calls one shared baseline ring that still counts bits
# through __popcountdi2. Disassemble both libraries and fail unless,
# for each entry point, the POPCNT clone (with its .cold part) holds a
# popcnt instruction and no __popcountdi2 call, and a baseline clone
# exists.
#
# Only meaningful for an optimized GCC build on x86-64 Linux without
# TSan, where the macro expands and the compiler inlines; the top-level
# CMakeLists registers it only there.
#
# Usage:
#   cmake -DOBJDUMP=<objdump> -DFMINDEX_LIB=<libexma_fmindex.a>
#         -DCORE_LIB=<libexma_core.a> -P check_popcnt_clones.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT OBJDUMP OR NOT FMINDEX_LIB OR NOT CORE_LIB)
    message(FATAL_ERROR "check_popcnt_clones.cmake needs -DOBJDUMP=, "
                        "-DFMINDEX_LIB= and -DCORE_LIB=")
endif()

# check_clones(<library> <mangled-name prefix> <readable name>)
function(check_clones lib prefix name)
    execute_process(COMMAND ${OBJDUMP} -dr ${lib}
        OUTPUT_VARIABLE dis RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${OBJDUMP} -dr ${lib} failed (${rc}): ${err}")
    endif()
    # A function's listing runs from its "<symbol>:" line to the blank
    # line after its last instruction.
    string(REGEX MATCHALL "<${prefix}[^>\n]*\\.popcnt(\\.cold)?>:\n([^\n]+\n)*"
        popcnt_bodies "${dis}")
    # SEND_ERROR fails the script but lets the other entry point be
    # checked too.
    if(NOT popcnt_bodies)
        message(SEND_ERROR "${name}: no POPCNT clone in ${lib}")
        return()
    endif()
    string(JOIN "" popcnt_body ${popcnt_bodies})
    if(NOT popcnt_body MATCHES "\tpopcnt ")
        message(SEND_ERROR
            "${name}: the POPCNT clone holds no popcnt instruction; "
            "the rank code under it was not inlined into the clone")
        return()
    endif()
    if(popcnt_body MATCHES "__popcountdi2")
        message(SEND_ERROR
            "${name}: the POPCNT clone still calls __popcountdi2")
        return()
    endif()
    if(NOT dis MATCHES "<${prefix}[^>\n]*\\.default>:\n")
        message(SEND_ERROR "${name}: no baseline clone in ${lib}")
        return()
    endif()
    message(STATUS "${name}: POPCNT and baseline clones OK")
endfunction()

check_clones(${FMINDEX_LIB} "_ZNK4exma7FmIndex10locateRowsE"
    "FmIndex::locateRows")
check_clones(${CORE_LIB} "_ZNK4exma9ExmaTable6searchESt4span"
    "ExmaTable::search (staged)")
