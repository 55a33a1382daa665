# Fails when src/, bench/ or examples/ name a LAKE_* environment
# variable other than the two the project keeps. Boot configuration is
# code (core::LakeConfig and the per-subsystem config structs); an env
# override is allowed only where a harness or tracing hook needs it.
#
#   cmake -DLAKE_SOURCE_DIR=<repo root> -P tests/env_knobs.cmake

cmake_minimum_required(VERSION 3.16)

set(allowed LAKE_CPU_THREADS LAKE_OBS_TRACE)

if(NOT LAKE_SOURCE_DIR)
    message(FATAL_ERROR "pass -DLAKE_SOURCE_DIR=<repo root>")
endif()

set(patterns)
foreach(dir src bench examples)
    foreach(ext h cc cpp sh py txt cmake)
        list(APPEND patterns "${LAKE_SOURCE_DIR}/${dir}/*.${ext}")
    endforeach()
endforeach()
file(GLOB_RECURSE files ${patterns})
if(NOT files)
    message(FATAL_ERROR "no sources found under ${LAKE_SOURCE_DIR}")
endif()

set(bad)
foreach(f IN LISTS files)
    file(STRINGS "${f}" lines REGEX "\"LAKE_[A-Z0-9_]+\"")
    foreach(line IN LISTS lines)
        string(REGEX MATCHALL "\"LAKE_[A-Z0-9_]+\"" names "${line}")
        foreach(quoted IN LISTS names)
            string(REPLACE "\"" "" name "${quoted}")
            if(NOT name IN_LIST allowed)
                file(RELATIVE_PATH rel "${LAKE_SOURCE_DIR}" "${f}")
                list(APPEND bad "${rel}: ${name}")
            endif()
        endforeach()
    endforeach()
endforeach()

if(bad)
    list(REMOVE_DUPLICATES bad)
    string(REPLACE ";" "\n  " report "${bad}")
    message(FATAL_ERROR
        "LAKE_* environment variables outside the allowed set "
        "(${allowed}); configure in code instead:\n  ${report}")
endif()
list(LENGTH files n)
message(STATUS "env_knobs: ${n} files clean")
