// Task context switch, x86_64 SysV (Intel syntax, as `global_asm!` reads it).
//
// mcsim_ctx_switch(save: *mut usize, target: usize):
//   push the callee-saved registers, store the stack pointer into *save,
//   load `target` as the stack pointer, pop its callee-saved registers and
//   return into it.
//
// mcsim_coro_thunk: the first return target of a fresh task stack.  The
//   initial frame holds the task's cell pointer in the r12 slot; the thunk
//   passes it to mcsim_coro_entry with the stack 16-byte aligned.

    .text
    .globl mcsim_ctx_switch
    .p2align 4
mcsim_ctx_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    mov [rdi], rsp
    mov rsp, rsi
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret

    .globl mcsim_coro_thunk
    .p2align 4
mcsim_coro_thunk:
    mov rdi, r12
    xor ebp, ebp
    sub rsp, 8
    call mcsim_coro_entry
    ud2
