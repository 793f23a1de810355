// A line-level CPU sampler for one process, loaded with LD_PRELOAD (see
// scripts/profile.sh). A CLOCK_MONOTONIC POSIX timer raises SIGPROF every
// 100 us; the handler records the interrupted instruction pointer and the
// return address a leaf routine would return to: the word at the stack
// pointer on x86_64, the link register on aarch64. In a leaf library
// routine (memmove, memcpy) that is the call site in the caller; elsewhere
// it is whatever the stack or register holds. At exit the process's own
// /proc/self/maps and the raw addresses go to `samples.txt` in the working
// directory, for the script to symbolize. It acts on its own process only:
// no perf events, no kernel setting.
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 21) // 32 MiB, 210 s at 10 kHz; later ticks are dropped
static unsigned long samples[MAX_SAMPLES][2];
static volatile unsigned long taken;
static timer_t timer;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
#if defined(__x86_64__)
    unsigned long ip = m->gregs[REG_RIP], ret = *(unsigned long *)m->gregs[REG_RSP];
#elif defined(__aarch64__)
    unsigned long ip = m->pc, ret = m->regs[30];
#else
#error "sampler.c reads the instruction pointer on x86_64 and aarch64 only"
#endif
    if (taken < MAX_SAMPLES) {
        samples[taken][0] = ip;
        samples[taken++][1] = ret;
    }
}

__attribute__((constructor)) static void start(void) {
    struct sigaction action = {.sa_sigaction = on_tick, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &action, NULL);
    struct sigevent event = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_MONOTONIC, &event, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    timer_delete(timer);
    FILE *out = fopen("samples.txt", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    for (unsigned long i = 0; i < taken; i++) fprintf(out, "ip %lx %lx\n", samples[i][0], samples[i][1]);
    fclose(maps);
    fclose(out);
}
