/*
 * The raw-kernel ABI a netlist library compiled by g5r netlistc exports next to
 * the simulator-facing bridge/rtl_api.h table.
 *
 * The rtl_api.h entry point wraps the compiled netlist in a generic device
 * register map so RtlObject/SharedLibModel can drive it like any other
 * model. This second, lower-level table exposes the netlist itself —
 * set-input / eval / tick / get-output by dense index, with name and width
 * tables for one-time resolution — so conformance tests and the
 * compiled-vs-interpreted benchmarks can exercise the generated evaluation
 * code directly, without threading every value through the device channel.
 *
 * Pure C for the same reason rtl_api.h is: the .so is produced by whatever
 * host toolchain g5r netlistc found, which need not match the simulator's.
 */
#ifndef G5R_RTL_CODEGEN_NETLIST_KERNEL_H
#define G5R_RTL_CODEGEN_NETLIST_KERNEL_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define G5R_NETLIST_KERNEL_ABI_VERSION 1u

typedef struct G5rNetlistKernelApi {
    uint32_t abi_version; /* == G5R_NETLIST_KERNEL_ABI_VERSION */
    const char* name;     /* model name, matches the rtl_api table */

    /* External nets, in netlist declaration order. Widths are the declared
     * net widths (1..64); names point at static storage in the library. */
    uint32_t num_inputs;
    uint32_t num_outputs;
    const char* const* input_names;
    const uint32_t* input_widths;
    const char* const* output_names;
    const uint32_t* output_widths;

    /* Instance lifecycle. create() returns a reset kernel. */
    void* (*create)(void);
    void (*destroy)(void* kernel);

    /* Reset registers to their init values (combinational values settle on
     * the next eval, exactly like the interpreter's reset()). */
    void (*reset)(void* kernel);

    /* Drive input @p index (masked to its declared width). */
    void (*set_input)(void* kernel, uint32_t index, uint64_t value);

    /* Propagate combinational logic / clock one edge (eval + latch). */
    void (*eval)(void* kernel);
    void (*tick)(void* kernel);

    /* Output @p index after the last eval()/tick(). */
    uint64_t (*get_output)(void* kernel, uint32_t index);
} G5rNetlistKernelApi;

/* Compiled netlist libraries export this symbol in addition to
 * G5R_RTL_GET_API_SYMBOL. */
#define G5R_NETLIST_KERNEL_GET_API_SYMBOL "g5r_netlist_kernel_get_api"
typedef const G5rNetlistKernelApi* (*G5rNetlistKernelGetApiFn)(void);

#ifdef __cplusplus
}
#endif

#endif /* G5R_RTL_CODEGEN_NETLIST_KERNEL_H */
