/* _replay_core: the fast tier's kernels and the trace-synthesis kernel.
 *
 * A hand-written CPython extension fusing the hot per-access work of the
 * replay pipeline over the columnar data the Python layers already keep
 * unboxed: one .so built from the units beside this file, each described
 * at its own head, sharing only what _replay_core.h declares.
 *
 * - binding.c: column and ledger binding, and the small helpers;
 * - tree.c: the Path ORAM working set and AccessKernel;
 * - blake2b.c: BLAKE2b (RFC 7693) and blake2b_lanes;
 * - frontend.c: FrontendKernel, one PlbFrontend request (§4.2.4, §5, §6);
 * - recursive.c: RecursiveKernel, one RecursiveFrontend request (§3.2);
 * - access_loop.c: run_access_loop, one replay slice in one call;
 * - serve.c: ServeKernel, serve_fold and route_column;
 * - synth.c: synthesize_trace and mt_draws, a replay's input;
 * - column.c: column(), the allocator of fixed-size columns;
 * - list_adapters.c: four list-in/list-out adapters, the perf proxy's;
 * - _replay_core.c: the module table and its init.
 *
 * The kernel inventory, the bit-identity contract and the buffer rules
 * at the boundary are docs/native.md's.
 */

#include "_replay_core.h"

#ifndef REPRO_SOURCE_DIGEST
#define REPRO_SOURCE_DIGEST "" /* built without setup.py: never current */
#endif

PyObject *str_tree_accesses, *str_observer, *str_on_path_read,
    *str_on_path_write, *str_grow, *str_stash, *str_reserve,
    *str_abort_access, *str_addr, *str_leaf, *str_data, *str_mac, *str_kernel,
    *str_posmap_tree_accesses, *str_plb_hit_level, *str_cycles, *str_events,
    *empty_tuple;

static PyMethodDef replay_core_methods[] = {
    {"column", column_new, METH_VARARGS,
     "column(typecode, length, zeroed) -> a fixed-size, writable buffer "
     "of `length` array-typecode items, over calloc'd memory when "
     "`zeroed` and uninitialised malloc'd memory otherwise."},
    {"run_access_loop", (PyCFunction)(void (*)(void))run_access_loop,
     METH_FASTCALL,
     "run_access_loop(access, line_addrs, is_write, lines_per_block, "
     "read_op, write_op, payload, table, miss_latency, cycles, latencies) "
     "-> cycles: one replay slice, translated, accessed and folded."},
    {"route_column", route_column, METH_VARARGS,
     "route_column(addrs, routes, shards): each address's shard, the CRC-32 "
     "of its 8 little-endian bytes mod shards, into routes."},
    {"serve_fold", (PyCFunction)(void (*)(void))serve_fold, METH_FASTCALL,
     "serve_fold(logs, ends, max_batch, busy, totals) -> (packed, busy, "
     "summaries) | None: the serve accounting log's fold, or None for "
     "the reference fold."},
    {"blake2b", blake2b_digest, METH_VARARGS,
     "blake2b(key, message, digest_size) -> bytes: the vendored RFC 7693 "
     "hash behind the frontend kernel's PRF and MAC."},
    {"_lanes", lanes_entry, METH_VARARGS,
     "_lanes(spelling, lanes, repeat=1) -> [digest, ...]: 1..4 "
     "(key, digest_size, message) lanes in one call of the named "
     "blake2b_lanes spelling (tests and micro benchmarks only)."},
    {"_passes", passes_entry, METH_NOARGS,
     "_passes() -> (lanes, scalar): the frontend kernels' blake2b_lanes "
     "calls and fk_mac's own compressions since import (tests only)."},
    {"synthesize_trace", synthesize_trace, METH_VARARGS,
     "One whole SpecStandIn.refs -> CacheHierarchy.run: pattern mixture, "
     "MT19937 draws and the L1+L2 LRU hierarchy; returns the miss "
     "columns and the four counters."},
    {"mt_draws", mt_draws, METH_VARARGS,
     "mt_draws(state, n, count) -> list: the synthesis kernel's MT19937 "
     "on its own (random() when n == 0, randbelow(n) otherwise)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef replay_core_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim.native._replay_core",
    "Compiled replay core: fused access/eviction loop over columnar "
    "arenas (see repro.sim.native).",
    -1,
    replay_core_methods,
};

PyMODINIT_FUNC PyInit__replay_core(void);

PyMODINIT_FUNC
PyInit__replay_core(void)
{
    static const struct {
        PyObject **slot;
        const char *text;
    } names[] = {
        {&str_tree_accesses, "tree_accesses"},
        {&str_observer, "observer"},
        {&str_on_path_read, "on_path_read"},
        {&str_on_path_write, "on_path_write"},
        {&str_grow, "_grow"},
        {&str_stash, "stash"},
        {&str_reserve, "reserve"},
        {&str_abort_access, "_abort_access"},
        {&str_addr, "addr"},
        {&str_leaf, "leaf"},
        {&str_data, "data"},
        {&str_mac, "mac"},
        {&str_kernel, "_kernel"},
        {&str_posmap_tree_accesses, "posmap_tree_accesses"},
        {&str_plb_hit_level, "plb_hit_level"},
        {&str_cycles, "cycles"},
        {&str_events, "events"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].text);
        if (*names[i].slot == NULL)
            return NULL;
    }
    for (uint32_t n = 0; n < 256; n++) {
        uint32_t crc = n;
        for (int k = 0; k < 8; k++)
            crc = crc & 1 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
        crc_table[n] = crc;
    }
    empty_tuple = PyTuple_New(0);
    if (empty_tuple == NULL || PyType_Ready(&AccessKernelType) < 0 ||
        PyType_Ready(&FrontendKernelType) < 0 ||
        PyType_Ready(&RecursiveKernelType) < 0 ||
        PyType_Ready(&ServeKernelType) < 0 ||
        PyType_Ready(&ColumnType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&replay_core_module);
    if (module == NULL)
        return NULL;
    /* What this build was compiled from (setup.py's SHA-256 of the
     * sources); native_core refuses a module whose sources have moved. */
    if (PyModule_AddStringConstant(module, "LEDGERS",
                                   ALL_LEDGERS(LEDGER_LINE)) < 0 ||
        PyModule_AddStringConstant(module, "SOURCE_DIGEST",
                                   REPRO_SOURCE_DIGEST) < 0 ||
        PyModule_AddStringConstant(module, "LANES",
                                   blake2b_lanes_choose()) < 0 ||
        PyModule_AddIntConstant(module, "MAX_REFS_PER_MISS",
                                MAX_REFS_PER_MISS) < 0 ||
        PyModule_AddObjectRef(module, "AccessKernel",
                              (PyObject *)&AccessKernelType) < 0 ||
        PyModule_AddObjectRef(module, "FrontendKernel",
                              (PyObject *)&FrontendKernelType) < 0 ||
        PyModule_AddObjectRef(module, "RecursiveKernel",
                              (PyObject *)&RecursiveKernelType) < 0 ||
        PyModule_AddObjectRef(module, "ServeKernel",
                              (PyObject *)&ServeKernelType) < 0 ||
        PyModule_AddFunctions(module, list_adapter_methods) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
