/* Monotonic clock for deadline bookkeeping.

   CLOCK_MONOTONIC is immune to wall-clock steps (NTP corrections,
   manual date changes), which matters for per-query deadlines: a
   backwards step under gettimeofday would let queries run unbounded,
   and a forwards step would spuriously time out every in-flight
   query. Falls back to gettimeofday only where no monotonic clock
   exists.

   The native entry point returns an unboxed double and touches no
   OCaml value, so the external is [@@noalloc]: a deadline check on the
   search hot path costs one clock read and no allocation. Bytecode
   goes through the boxing wrapper. */

#include <caml/alloc.h>
#include <caml/mlvalues.h>
#include <time.h>

#ifdef CLOCK_MONOTONIC

double pj_monotonic_now(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

#else

#include <sys/time.h>

double pj_monotonic_now(value unit)
{
  (void)unit;
  struct timeval tv;
  gettimeofday(&tv, NULL);
  return (double)tv.tv_sec + 1e-6 * (double)tv.tv_usec;
}

#endif

CAMLprim value pj_monotonic_now_byte(value unit)
{
  return caml_copy_double(pj_monotonic_now(unit));
}
