#include "noc/router.h"

#include "common/log.h"
#include "obs/metrics.h"

namespace hmcsim {

Router::Router(Kernel &kernel, Component *parent, std::string name,
               std::uint32_t id, const RouterParams &params)
    : Component(kernel, parent, std::move(name)), id_(id), params_(params)
{
}

int
Router::addInput(CreditPool *upstream)
{
    inputs_.push_back(Input{{}, upstream});
    return static_cast<int>(inputs_.size() - 1);
}

int
Router::connectTo(Router *dst)
{
    if (!dst)
        panic("Router::connectTo: null destination");
    const std::size_t o = outputs_.size();
    auto out = std::make_unique<Output>(params_.outputQueueFlits);
    out->dstRouter = dst;
    out->credits.emplace(kernel(), dst->inputBufferFlits());
    out->credits->setOnAvailable([this, o] { tryDrain(o); });
    out->dstInput = dst->addInput(&*out->credits);
    out->chan = std::make_unique<Channel>(
        kernel(), path() + ".out" + std::to_string(o),
        params_.flitPeriod, params_.wireLatency);
    outputs_.push_back(std::move(out));
    return static_cast<int>(outputs_.size() - 1);
}

int
Router::addOutputToEndpoint(NodeId ep, Eject eject)
{
    if (!eject.tryReserve || !eject.deliver)
        panic("Router::addOutputToEndpoint: incomplete eject callbacks");
    auto out = std::make_unique<Output>(params_.ejectQueueFlits);
    out->ejectEp = ep;
    out->eject = std::move(eject);
    out->chan = std::make_unique<Channel>(
        kernel(), path() + ".eject" + std::to_string(ep),
        params_.flitPeriod, params_.wireLatency);
    outputs_.push_back(std::move(out));
    return static_cast<int>(outputs_.size() - 1);
}

void
Router::setRoutes(std::vector<int> output_for_endpoint)
{
    for (int o : output_for_endpoint) {
        if (o < 0 || static_cast<std::size_t>(o) >= outputs_.size())
            panic("Router::setRoutes: invalid output index");
    }
    routeOut_ = std::move(output_for_endpoint);
}

int
Router::routeFor(NodeId dst) const
{
    if (dst >= routeOut_.size())
        panic("Router '" + name() + "': no route for endpoint " +
              std::to_string(dst));
    return routeOut_[dst];
}

void
Router::acceptMessage(int input, const NocMessage &msg, Tick arrival)
{
    if (input < 0 || static_cast<std::size_t>(input) >= inputs_.size())
        panic("Router::acceptMessage: invalid input port");
    const std::size_t idx = static_cast<std::size_t>(input);
    Input &in = inputs_[idx];
    const Tick ready = arrival + params_.routerLatency;
    if (arrival < now() || (!in.q.empty() && in.q.back().ready > ready))
        panic("Router::acceptMessage: arrival out of order on input " +
              std::to_string(input));
    const EventSlot relay = kernel().scheduleRelay(
        arrival, ready, [this, idx] { processInput(idx); });
    in.q.push_back(Entry{ready, relay.seq, msg});
    // An unposted serializer slot at the ready time fires before the
    // message's event, so its input scan takes the message: post it.
    for (std::size_t o = 0; o < outputs_.size() && lazySlots_ != 0; ++o) {
        const Output &out = *outputs_[o];
        if (out.serDone.lazy() && out.serDone.when() == ready)
            postSerDone(o);
    }
}

void
Router::processInput(std::size_t i)
{
    Input &in = inputs_[i];
    while (!in.q.empty()) {
        const Entry &head = in.q.front();
        const NocMessage &msg = head.msg;
        if (head.ready > now()) {
            // Its own event, due at its ready time, handles it.
            break;
        }
        const std::size_t o = static_cast<std::size_t>(routeFor(msg.dst));
        Output &out = *outputs_[o];
        fold(out);
        if (!out.q.canAccept(msg.flits)) {
            // Head-of-line blocked; outputSerDone retries all inputs.
            setBlocked(in, true);
            return;
        }
        out.q.push(msg);
        if (out.serDone.lazy())
            postSerDone(o);
        messages_.inc();
        flits_.inc(msg.flits);
        if (probe_)
            probe_->record(PowerEvent::NocFlitHop, msg.flits);
        if (in.upstream)
            in.upstream->refundIn(params_.creditLatency, msg.flits);
        in.q.pop_front();
        tryDrain(o);
    }
    setBlocked(in, false);
}

void
Router::setBlocked(Input &in, bool blocked)
{
    if (in.blocked == blocked)
        return;
    in.blocked = blocked;
    if (blocked) {
        ++blockedInputs_;
        // Every serializer-done event scans the inputs: post them all.
        for (std::size_t o = 0; o < outputs_.size() && lazySlots_ != 0; ++o)
            postSerDone(o);
    } else {
        --blockedInputs_;
    }
}

void
Router::tryDrain(std::size_t o)
{
    Output &out = *outputs_[o];
    fold(out);
    if (out.serDone.held() || out.q.empty())
        return;
    const NocMessage &head = out.q.front();
    if (out.dstRouter) {
        if (!out.credits->canConsume(head.flits))
            return;  // the pool's wake retries
        out.credits->consume(head.flits);
    } else {
        if (!out.eject.tryReserve(head.flits)) {
            out.blockedOnEject = true;
            return;  // kickEject() retries
        }
        out.blockedOnEject = false;
    }
    const Channel::Times t = out.chan->reserve(head.flits, now());
    out.serDone.reserve(kernel(), t.serDone - now());
    ++lazySlots_;
    // Post the slot if its event would do more than the fold: drain
    // another queued message, or scan inputs that are blocked or whose
    // message becomes ready right then, ahead of that message's own
    // event (its arrival relay has not passed yet).
    bool wanted = out.q.size() > 1 || blockedInputs_ != 0;
    for (std::size_t i = 0; i < inputs_.size() && !wanted; ++i) {
        const auto &q = inputs_[i].q;
        for (auto it = q.rbegin(); it != q.rend() && it->ready >= t.serDone;
             ++it) {
            if (it->ready == t.serDone &&
                !kernel().passed(EventSlot{
                    it->ready - params_.routerLatency, 0, it->seq}))
                wanted = true;
        }
    }
    if (wanted)
        postSerDone(o);
    if (out.dstRouter) {
        out.dstRouter->acceptMessage(out.dstInput, head, t.arrival);
    } else {
        // One copy of the message for the in-flight delivery (the
        // queue entry is popped when the channel frees); the Output
        // lives behind a unique_ptr, so its address is stable to
        // capture.
        Output *op = &out;
        kernel().scheduleAt(t.arrival, [op, msg = head] {
            op->eject.deliver(msg);
        });
    }
}

void
Router::fold(Output &out)
{
    if (out.serDone.due(kernel())) {
        out.q.pop();
        ++inputRR_;
        --lazySlots_;
    }
}

void
Router::postSerDone(std::size_t o)
{
    Output &out = *outputs_[o];
    fold(out);
    if (!out.serDone.lazy())
        return;
    --lazySlots_;
    out.serDone.post(kernel(), [this, o] { outputSerDone(o); });
}

void
Router::outputSerDone(std::size_t o)
{
    // Slots that passed before this one advanced the rotation.
    for (std::size_t k = 0; k < outputs_.size() && lazySlots_ != 0; ++k)
        fold(*outputs_[k]);
    Output &out = *outputs_[o];
    out.serDone.fired();
    out.q.pop();
    tryDrain(o);
    // Output-queue space freed: unblock HOL-stalled inputs.  The scan
    // starts at a rotating index; a fixed order would give one input
    // strict priority over the freed space and starve the others
    // under saturation.
    const std::size_t n = inputs_.size();
    if (n == 0)
        return;
    const std::size_t base = inputRR_++;
    for (std::size_t k = 0; k < n; ++k)
        processInput((base + k) % n);
}

void
Router::kickEject(NodeId ep)
{
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        Output &out = *outputs_[o];
        if (out.ejectEp == ep && out.blockedOnEject) {
            out.blockedOnEject = false;
            tryDrain(o);
        }
    }
}

void
Router::listStats(StatList &s) const
{
    s.counter("messages", messages_);
    s.counter("flits", flits_);
}

}  // namespace hmcsim
