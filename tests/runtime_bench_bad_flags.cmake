# Runs runtime_bench once per malformed flag value and requires the
# usage exit status 2 each time. Invoked by ctest as
#   cmake -DBENCH=<path to runtime_bench> -P runtime_bench_bad_flags.cmake
# Each case is one command line, with '|' between its arguments; every
# case fails in flag parsing, before runtime_bench starts a thread.
set(cases
    "--preset|flowscale|--workers|abc|--flows|2000|--packets|2000"
    "--preset|churn|--workers|0|--flows|200|--packets|2000"
    "--preset|churn|--workers|65"
    "--preset|churn|--workers|4x"
    "--preset|churn|--workers|-1"
    "--preset|churn|--packets|0"
    "--preset|churn|--packets|99999999999999999999999"
    "--preset|churn|--cuckoo-filter|bogus"
    "--preset|churn|--workers"
    "--preset|churn|--flows|12abc"
    "--preset|elastic|--flows|0"
    "--preset|elastic|--skew|fast"
    "--preset|multiworker|--burst|0"
    "--preset|multiworker|--prom-port|65536"
    "--preset|flowscale|--emc-entries|+5"
    "--preset|multiworker|--sample-us|1e3"
    "--preset|multiworker|--workers|2"
    "--preset|elastic|--perf"
    "--preset|elastic|--elastic|--static"
    "--preset|nonesuch"
    "--packets|100")
foreach(case IN LISTS cases)
    string(REPLACE "|" ";" args "${case}")
    execute_process(COMMAND ${BENCH} ${args}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "runtime_bench ${args}: exit ${rc}, want 2\n${err}")
    endif()
    if(NOT err MATCHES "usage: ")
        message(FATAL_ERROR "runtime_bench ${args}: no usage line\n${err}")
    endif()
endforeach()
