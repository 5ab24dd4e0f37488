/**
 * @file
 * Allocation-free event callable for the simulation hot path.
 *
 * std::function<void()> heap-allocates any capture larger than its
 * small-buffer (16 B on libstdc++) and pays a manager-function call on
 * every move and destroy -- at ~10^6 scheduled events per wall second
 * that malloc/free pair dominates the engine.  InlineEvent stores the
 * capture inline in a fixed buffer sized for the largest real capture
 * in the codebase (a NoC eject callback carrying a NocMessage plus a
 * std::function deliver hook) and rejects anything bigger at compile
 * time, so schedule() never allocates.
 *
 * Events are move-only; a move transfers the capture and empties the
 * source.  The event queue never moves one: schedule() builds the
 * capture directly in a free slot of its callback array
 * (InlineFunction::emplace), and executeNext() runs it in that slot
 * and then destroys it.  Bucket sorts and heap sifts move only the
 * queue's small keys.  The slots sit in fixed chunks that never move,
 * and the chunks and the free list stay allocated across the run, so
 * after warmup no event path touches the allocator.
 *
 * InlineEvent is the `void()` instantiation of the general
 * InlineFunction template (common/inline_function.h), which the link
 * and chain callback surfaces use for non-nullary signatures.
 */

#ifndef HMCSIM_SIM_INLINE_EVENT_H_
#define HMCSIM_SIM_INLINE_EVENT_H_

#include <cstddef>

#include "common/inline_function.h"

namespace hmcsim {

/**
 * Inline capture capacity in bytes.  Sized for the largest scheduled
 * lambda in the tree (Router::tryDrain's ejection delivery: an Output*
 * and a 48 B NocMessage, 56 B).  Growing a capture past this is a
 * compile error at the schedule() site, not a silent fallback to heap
 * allocation -- raise the constant deliberately; it sets the size of
 * every slot in the queue's callback array.
 */
constexpr std::size_t kInlineEventCapacity = 64;

using InlineEvent = InlineFunction<void(), kInlineEventCapacity>;

}  // namespace hmcsim

#endif  // HMCSIM_SIM_INLINE_EVENT_H_
