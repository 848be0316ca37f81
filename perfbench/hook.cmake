# Injected into a configure of the repository root with
#   -DCMAKE_PROJECT_centsim_INCLUDE=<this file>
# (perfbench/run.py does this). project(centsim) includes it, and the
# deferred call reads perfbench/CMakeLists.txt after the root CMakeLists.txt
# has defined the library targets and compile options. Configuring from the
# root keeps src/*/CMakeLists.txt resolving includes from CMAKE_SOURCE_DIR
# and keeps the build stamp (git SHA, build type) that GetBuildInfo()
# reports. CMake does not allow add_subdirectory() in deferred calls, so
# the benchmark's build file is included instead.
set(CENTBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${CENTBENCH_SOURCE_DIR}/CMakeLists.txt")
