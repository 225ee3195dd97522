/**
 * @file
 * ThreadSanitizer's default options for the TSan test binaries, so
 * they behave the same under ctest and run directly: stop at the
 * first report, and let children forked after a replay helper exists
 * start threads of their own (die_after_fork=0).  TSAN_OPTIONS in the
 * environment still overrides them.  Include it from exactly one
 * source of each binary; it is empty unless that source is compiled
 * with -fsanitize=thread.
 */

#ifndef PARADOX_TESTS_TSAN_OPTIONS_HH
#define PARADOX_TESTS_TSAN_OPTIONS_HH

#ifdef __SANITIZE_THREAD__
extern "C" const char *
__tsan_default_options()
{
    return "halt_on_error=1:die_after_fork=0";
}
#endif

#endif // PARADOX_TESTS_TSAN_OPTIONS_HH
