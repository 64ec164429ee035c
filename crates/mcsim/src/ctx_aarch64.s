// Task context switch, aarch64 AAPCS64.
//
// mcsim_ctx_switch(save: *mut usize, target: usize):
//   store the callee-saved registers (x19-x28, fp, lr, d8-d15) in a
//   160-byte frame, store the stack pointer into *save, load `target` as
//   the stack pointer, restore its frame and return through its lr.
//
// mcsim_coro_thunk: the first return target of a fresh task stack.  The
//   initial frame holds the task's cell pointer in the x19 slot; the thunk
//   passes it to mcsim_coro_entry with a zeroed frame pointer.

    .text
    .globl mcsim_ctx_switch
    .p2align 2
mcsim_ctx_switch:
    sub sp, sp, #160
    stp x19, x20, [sp, #0]
    stp x21, x22, [sp, #16]
    stp x23, x24, [sp, #32]
    stp x25, x26, [sp, #48]
    stp x27, x28, [sp, #64]
    stp x29, x30, [sp, #80]
    stp d8, d9, [sp, #96]
    stp d10, d11, [sp, #112]
    stp d12, d13, [sp, #128]
    stp d14, d15, [sp, #144]
    mov x9, sp
    str x9, [x0]
    mov sp, x1
    ldp x19, x20, [sp, #0]
    ldp x21, x22, [sp, #16]
    ldp x23, x24, [sp, #32]
    ldp x25, x26, [sp, #48]
    ldp x27, x28, [sp, #64]
    ldp x29, x30, [sp, #80]
    ldp d8, d9, [sp, #96]
    ldp d10, d11, [sp, #112]
    ldp d12, d13, [sp, #128]
    ldp d14, d15, [sp, #144]
    add sp, sp, #160
    ret

    .globl mcsim_coro_thunk
    .p2align 2
mcsim_coro_thunk:
    mov x0, x19
    mov x29, xzr
    bl mcsim_coro_entry
    brk #0
