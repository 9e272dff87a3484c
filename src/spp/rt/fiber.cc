#include "spp/rt/fiber.h"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "spp/lib/thread_annotations.h"
#include "spp/rt/host_mutex.h"

// Context-switch selection: hand-rolled on ELF x86-64/aarch64 (the SysV
// calling conventions the asm below assumes), ucontext elsewhere on unix.
// Simulated threads have no other carrier, so any other target fails here.
#if defined(__ELF__) && defined(__x86_64__)
#define SPP_FIBER_ASM_X86_64 1
#elif defined(__ELF__) && defined(__aarch64__)
#define SPP_FIBER_ASM_AARCH64 1
#elif defined(__unix__) || defined(__APPLE__)
#define SPP_FIBER_UCONTEXT 1
#include <ucontext.h>
#else
#error "spp::rt::Fiber needs ELF x86-64/aarch64 or ucontext"
#endif

#include <sys/mman.h>
#include <unistd.h>

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define SPP_FIBER_ASAN 1
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
#define SPP_FIBER_TSAN 1
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// The itanium C++ ABI keeps the caught-exception chain in a per-OS-thread
// __cxa_eh_globals block ({caughtExceptions, uncaughtExceptions}, 16 bytes on
// LP64).  Fibers sharing one host thread must each see their own chain, or a
// fiber suspending inside a catch block corrupts its neighbours'
// __cxa_end_catch bookkeeping; switch_to() swaps the block per fiber.
extern "C" void* __cxa_get_globals() noexcept;

namespace spp::rt {

namespace {

void swap_eh_globals(unsigned char* save_outgoing,
                     const unsigned char* load_incoming, std::size_t n) {
  void* g = __cxa_get_globals();
  unsigned char tmp[2 * sizeof(void*)];
  std::memcpy(tmp, g, n);
  std::memcpy(g, load_incoming, n);
  std::memcpy(save_outgoing, tmp, n);
}

std::size_t page_size() {
  static const std::size_t p = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return p;
}

// Stacks are recycled through a small free list instead of munmap'ed: a
// fine-grained simulation spawns thousands of short-lived SThreads, and a
// fresh mmap per spawn costs two syscalls plus a first-touch page fault for
// every stack page the fiber ever uses.  A recycled stack keeps its guard
// page and its warm pages.  All stacks are the same size in practice, so the
// list holds only exact-size matches; a mutex keeps the (rare) case of
// multiple host threads running conductors safe.
struct StackPool {
  static constexpr std::size_t kMaxFree = 64;
  struct Item {
    void* base;
    std::size_t bytes;
  };
  HostMutex mu;
  std::vector<Item> free SPP_GUARDED_BY(mu);

  void* acquire(std::size_t bytes) {
    HostLock lock(mu);
    for (std::size_t i = free.size(); i-- > 0;) {
      if (free[i].bytes == bytes) {
        void* base = free[i].base;
        free[i] = free.back();
        free.pop_back();
        return base;
      }
    }
    return nullptr;
  }

  bool release(void* base, std::size_t bytes) {
    HostLock lock(mu);
    if (free.size() >= kMaxFree) return false;
    free.push_back({base, bytes});
    return true;
  }

  // Destructor runs only at process exit (the singleton below is leaked on
  // purpose, so in practice never); no other thread can exist then, hence
  // the lockless walk is safe and exempt from analysis.
  ~StackPool() SPP_NO_THREAD_SAFETY_ANALYSIS {
    for (const Item& i : free) munmap(i.base, i.bytes);
  }
};

StackPool& stack_pool() {
  static StackPool* pool = new StackPool;  // leaked: fibers may die at exit
  return *pool;
}

}  // namespace

// ---------------------------------------------------------------------------
// Raw context switch
// ---------------------------------------------------------------------------

#if defined(SPP_FIBER_ASM_X86_64)

// SysV x86-64: save callee-saved integer registers plus the x87 control word
// and mxcsr, flip stacks, restore.  A new fiber's frame (built in create())
// feeds the same restore sequence and "returns" into the trampoline with the
// entry function in r12 and its argument in r13.
asm(R"(
.text
.align 16
.globl spp_fiber_raw_switch
.hidden spp_fiber_raw_switch
.type spp_fiber_raw_switch, @function
spp_fiber_raw_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  fnstcw (%rsp)
  stmxcsr 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  retq
.size spp_fiber_raw_switch, .-spp_fiber_raw_switch

.align 16
.globl spp_fiber_trampoline
.hidden spp_fiber_trampoline
.type spp_fiber_trampoline, @function
spp_fiber_trampoline:
  movq %r13, %rdi
  xorl %ebp, %ebp
  pushq %rbp
  callq *%r12
  ud2
.size spp_fiber_trampoline, .-spp_fiber_trampoline
)");

extern "C" {
void spp_fiber_raw_switch(void** save_sp, void* load_sp);
void spp_fiber_trampoline();
}

#elif defined(SPP_FIBER_ASM_AARCH64)

// AAPCS64: save x19-x28, fp, lr, and d8-d15 (160 bytes), flip sp, restore.
// A new fiber's frame carries the entry function in x19, its argument in
// x20, and the trampoline as the return address.
asm(R"(
.text
.align 4
.globl spp_fiber_raw_switch
.hidden spp_fiber_raw_switch
.type spp_fiber_raw_switch, @function
spp_fiber_raw_switch:
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
  mov x2, sp
  str x2, [x0]
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
.size spp_fiber_raw_switch, .-spp_fiber_raw_switch

.align 4
.globl spp_fiber_trampoline
.hidden spp_fiber_trampoline
.type spp_fiber_trampoline, @function
spp_fiber_trampoline:
  mov x0, x20
  mov x29, #0
  mov x30, #0
  blr x19
  brk #1
.size spp_fiber_trampoline, .-spp_fiber_trampoline
)");

extern "C" {
void spp_fiber_raw_switch(void** save_sp, void* load_sp);
void spp_fiber_trampoline();
}

#else  // SPP_FIBER_UCONTEXT

namespace {

/// ucontext needs its entry arguments smuggled through makecontext's int
/// varargs; keep them next to the context itself.
struct UctxState {
  ucontext_t ctx;
  void (*entry)(void*) = nullptr;
  void* arg = nullptr;
};

void uctx_trampoline(unsigned hi, unsigned lo) {
  auto* st = reinterpret_cast<UctxState*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  st->entry(st->arg);
}

}  // namespace

#endif

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

Fiber::~Fiber() {
#if defined(SPP_FIBER_UCONTEXT)
  delete static_cast<UctxState*>(uctx_);
#endif
#if defined(SPP_FIBER_TSAN)
  // A host slot holds its OS thread's own context, not ours to destroy.
  if (created() && tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (stack_ != nullptr && !stack_pool().release(stack_, map_bytes_)) {
    munmap(stack_, map_bytes_);
  }
}

void Fiber::create(void (*entry)(void*), void* arg, std::size_t stack_bytes) {
  // Guard page below the stack (stacks grow down): an overflow faults
  // instead of silently corrupting adjacent heap and breaking determinism.
  const std::size_t pg = page_size();
  const std::size_t usable = (stack_bytes + pg - 1) / pg * pg;
  map_bytes_ = usable + pg;
  void* base = stack_pool().acquire(map_bytes_);
  if (base == nullptr) {
    int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_STACK
    flags |= MAP_STACK;
#endif
    base = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, flags, -1, 0);
    if (base == MAP_FAILED) {
      throw std::runtime_error("fiber: stack mmap failed");
    }
    if (mprotect(base, pg, PROT_NONE) != 0) {
      munmap(base, map_bytes_);
      throw std::runtime_error("fiber: guard mprotect failed");
    }
  }
  stack_ = base;
  stack_bottom_ = static_cast<char*>(base) + pg;
  stack_size_ = usable;

#if defined(SPP_FIBER_ASM_X86_64)
  // Frame layout consumed by spp_fiber_raw_switch's restore half, low to
  // high: [fcw|mxcsr] r15 r14 r13(arg) r12(entry) rbx rbp ret(trampoline)
  // pad.  The pad leaves rsp ≡ 8 (mod 16) at trampoline entry, which its
  // own push realigns to the ABI's call boundary.
  auto* top = reinterpret_cast<std::uint64_t*>(
      reinterpret_cast<std::uintptr_t>(
          static_cast<char*>(stack_bottom_) + stack_size_) &
      ~std::uintptr_t{15});
  // Seed the frame's control words ([fcw at +0 | mxcsr at +4], the layout
  // spp_fiber_raw_switch's fldcw/ldmxcsr expect) from the caller's values.
  std::uint16_t fcw = 0;
  std::uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(fcw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  const std::uint64_t fpu =
      static_cast<std::uint64_t>(fcw) | (static_cast<std::uint64_t>(mxcsr) << 32);
  top[-1] = 0;
  top[-2] = reinterpret_cast<std::uint64_t>(&spp_fiber_trampoline);
  top[-3] = 0;  // rbp
  top[-4] = 0;  // rbx
  top[-5] = reinterpret_cast<std::uint64_t>(entry);  // r12
  top[-6] = reinterpret_cast<std::uint64_t>(arg);    // r13
  top[-7] = 0;  // r14
  top[-8] = 0;  // r15
  top[-9] = fpu;
  sp_ = &top[-9];
#elif defined(SPP_FIBER_ASM_AARCH64)
  auto* top = reinterpret_cast<char*>(
      reinterpret_cast<std::uintptr_t>(
          static_cast<char*>(stack_bottom_) + stack_size_) &
      ~std::uintptr_t{15});
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 160);
  std::memset(frame, 0, 160);
  frame[0] = reinterpret_cast<std::uint64_t>(entry);  // x19
  frame[1] = reinterpret_cast<std::uint64_t>(arg);    // x20
  frame[11] = reinterpret_cast<std::uint64_t>(&spp_fiber_trampoline);  // x30
  sp_ = frame;
#else
  auto* st = new UctxState;
  st->entry = entry;
  st->arg = arg;
  if (getcontext(&st->ctx) != 0) {
    delete st;
    throw std::runtime_error("fiber: getcontext failed");
  }
  st->ctx.uc_stack.ss_sp = stack_bottom_;
  st->ctx.uc_stack.ss_size = stack_size_;
  st->ctx.uc_link = nullptr;
  const auto p = reinterpret_cast<std::uintptr_t>(st);
  makecontext(&st->ctx, reinterpret_cast<void (*)()>(uctx_trampoline), 2,
              static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffu));
  uctx_ = st;
#endif
#if defined(SPP_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::switch_to(Fiber& from, Fiber& to) {
  swap_eh_globals(from.eh_state_, to.eh_state_, sizeof(from.eh_state_));
#if defined(SPP_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&from.fake_stack_, to.stack_bottom_,
                                 to.stack_size_);
#endif
#if defined(SPP_FIBER_TSAN)
  // A host slot takes whichever OS thread is switching away from it.  The
  // switch synchronizes, so tsan orders the fibers as the conductor does.
  if (!from.created()) from.tsan_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if defined(SPP_FIBER_ASM_X86_64) || defined(SPP_FIBER_ASM_AARCH64)
  spp_fiber_raw_switch(&from.sp_, to.sp_);
#else
  if (from.uctx_ == nullptr) from.uctx_ = new UctxState;
  swapcontext(&static_cast<UctxState*>(from.uctx_)->ctx,
              &static_cast<UctxState*>(to.uctx_)->ctx);
#endif
  // Resumed: we are back on `from`'s stack (whoever resumed us has already
  // restored our eh globals).
#if defined(SPP_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(from.fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::exit_to(Fiber& dying, Fiber& to) {
  swap_eh_globals(dying.eh_state_, to.eh_state_, sizeof(dying.eh_state_));
#if defined(SPP_FIBER_ASAN)
  // nullptr fake-stack slot: the dying fiber's fake frames are destroyed.
  __sanitizer_start_switch_fiber(nullptr, to.stack_bottom_, to.stack_size_);
#endif
#if defined(SPP_FIBER_TSAN)
  // The dying fiber's context is destroyed with its Fiber, on the host.
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if defined(SPP_FIBER_ASM_X86_64) || defined(SPP_FIBER_ASM_AARCH64)
  void* scratch = nullptr;
  spp_fiber_raw_switch(&scratch, to.sp_);
#else
  setcontext(&static_cast<UctxState*>(to.uctx_)->ctx);
#endif
  __builtin_unreachable();
}

void Fiber::on_entry([[maybe_unused]] Fiber& host) {
#if defined(SPP_FIBER_ASAN)
  // Complete the switch that brought us here and capture the host thread's
  // stack bounds so switches back to it are annotated correctly.
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &bottom, &size);
  if (host.stack_bottom_ == nullptr) {
    host.stack_bottom_ = const_cast<void*>(bottom);
    host.stack_size_ = size;
  }
#endif
}

}  // namespace spp::rt
