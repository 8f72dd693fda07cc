/* Counts C++ throws: an LD_PRELOAD shim that wraps __cxa_throw, counts
 * every call, and forwards to the real one. At exit each process appends
 * one line "throws <pid> <count>" to $THROW_COUNT_FILE (stderr when
 * unset), so a run that forks or execs workers leaves one line per process.
 *
 *   cc -shared -fPIC -O2 -o libthrow_count.so scripts/throw_count.c -ldl
 *   THROW_COUNT_FILE=throws.txt LD_PRELOAD=$PWD/libthrow_count.so \
 *       ./build/bench_campaign_curves --trials 4 --jobs 2 --json out.json
 *   awk '{s += $3} END {print s + 0}' throws.txt
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

typedef void (*cxa_throw_fn)(void*, void*, void (*)(void*));

static unsigned long long throw_count;

void __cxa_throw(void* thrown, void* type, void (*destroy)(void*))
    __attribute__((noreturn));

void __cxa_throw(void* thrown, void* type, void (*destroy)(void*)) {
    static cxa_throw_fn real;
    __atomic_add_fetch(&throw_count, 1, __ATOMIC_RELAXED);
    if (real == NULL) real = (cxa_throw_fn)dlsym(RTLD_NEXT, "__cxa_throw");
    if (real == NULL) abort();
    real(thrown, type, destroy);
    abort(); /* the real __cxa_throw does not return */
}

__attribute__((destructor)) static void report_throws(void) {
    char line[64];
    const int len = snprintf(line, sizeof line, "throws %ld %llu\n", (long)getpid(),
                             __atomic_load_n(&throw_count, __ATOMIC_RELAXED));
    if (len <= 0) return;
    const char* path = getenv("THROW_COUNT_FILE");
    int fd = STDERR_FILENO;
    if (path != NULL && path[0] != '\0') {
        fd = open(path, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd < 0) return;
    }
    /* One write per line: O_APPEND keeps concurrent processes' lines whole. */
    if (write(fd, line, (size_t)len) < 0) { /* nothing useful to do */ }
    if (fd != STDERR_FILENO) close(fd);
}
