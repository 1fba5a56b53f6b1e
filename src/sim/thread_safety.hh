/**
 * @file
 * Thread-safety annotation vocabulary (Genie-Analyze).
 *
 * These macros document — and Genie-Analyze *enforces* — the
 * concurrency contract of every piece of mutable shared state in the
 * tree. They expand to nothing: the checker is the cross-TU analyzer
 * in tools/genie_lint (rule families `shared-state`, `guarded-by`),
 * not the compiler, so the build needs no clang attribute support and
 * gcc builds stay clean. The TSan CI job is the dynamic backstop for
 * what a token-level analyzer cannot prove.
 *
 * Vocabulary:
 *
 *  - GENIE_GUARDED_BY(m): the annotated field may only be read or
 *    written while mutex @p m (a sibling member, or `obj.m`) is held.
 *    The analyzer checks that every access inside the owning class's
 *    methods (and the functions of the declaring file) lexically
 *    follows a lock_guard/scoped_lock/unique_lock of @p m, sits in a
 *    function annotated GENIE_REQUIRES(m), or is in the constructor/
 *    destructor (single-owner phases).
 *
 *  - GENIE_REQUIRES(m): the annotated function may only be called
 *    with mutex @p m held; accesses to fields guarded by @p m inside
 *    it need no local lock statement.
 *
 *  - GENIE_THREAD_LOCAL_OK: the annotated field — or, placed after a
 *    class/struct name, every member of the type — is confined to one
 *    thread at a time (per-Soc state owned by whichever worker runs
 *    that Soc, value types handed across a join, ...). Confinement is
 *    the codebase's default sharing story: each Soc owns its
 *    EventQueue, Tracer, StatRegistry, and profiler precisely so
 *    sweeps can run thousands of simulations concurrently without a
 *    single shared lock.
 *
 *  - GENIE_SHARED_OK(why): the annotated field (or whole type) really
 *    is accessed by multiple threads concurrently and is safe for a
 *    stated structural reason: it is a std::atomic, it is internally
 *    synchronized, or it is written only before worker threads spawn
 *    and read-only afterwards. The reason is mandatory and is written
 *    as bare tokens, not a string literal, so the analyzer (which
 *    strips strings) can archive it in the shared-state inventory.
 *
 * Annotation placement:
 *
 *   std::map<K, V> entries GENIE_GUARDED_BY(mutex);
 *   std::atomic<bool> stop GENIE_SHARED_OK(atomic flag){false};
 *   class Tracer GENIE_THREAD_LOCAL_OK { ... };
 *   void drain() GENIE_REQUIRES(queueMutex);
 *
 * Scope: the analyzer requires an annotation on every mutable static
 * in src/ and on every mutable member of types declared in the
 * shared-reachability set (src/dse, src/sim/stats.hh, src/trace,
 * src/metrics — the types both SweepEngine workers and the main
 * thread can touch). New shared state therefore cannot land without
 * declaring its synchronization story; that annotated map is the
 * contract any further concurrency in the simulator builds against.
 */

#ifndef GENIE_SIM_THREAD_SAFETY_HH
#define GENIE_SIM_THREAD_SAFETY_HH

#define GENIE_GUARDED_BY(...)
#define GENIE_REQUIRES(...)
#define GENIE_THREAD_LOCAL_OK
#define GENIE_SHARED_OK(...)

#endif // GENIE_SIM_THREAD_SAFETY_HH
