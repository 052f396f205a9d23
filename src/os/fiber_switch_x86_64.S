// graysim_fiber_switch(void** save_sp, void* load_sp): the scheduler's
// stack switch (x86-64 System V). Pushes the callee-saved registers and the
// MXCSR / x87 control words onto the current stack, stores the stack
// pointer in *save_sp, loads load_sp, pops the same frame from that stack
// and returns on it. Caller-saved registers are the caller's to spill, so
// this is the whole switch: no signal mask, no system call.
//
// Frame at a saved stack pointer (Scheduler::Run seeds the same layout on
// a fresh stack, with Scheduler::Trampoline as the return address):
//   +0 MXCSR (4 bytes), +4 x87 control word (2 bytes), +8 r15, +16 r14,
//   +24 r13, +32 r12, +40 rbx, +48 rbp, +56 return address.
//
// Deliberately carries no .note.gnu.property: the `ret` lands on another
// stack, which a CET shadow stack would reject, so linking this object
// keeps binaries from being marked shadow-stack compatible.
#if !defined(__x86_64__)
#error "graysim fibers: the stack switch exists for x86-64 only"
#endif

        .text
        .globl  graysim_fiber_switch
        .hidden graysim_fiber_switch
        .type   graysim_fiber_switch, @function
        .p2align 4
graysim_fiber_switch:
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        subq    $8, %rsp
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        ret
        .size   graysim_fiber_switch, .-graysim_fiber_switch

        .section .note.GNU-stack, "", @progbits
