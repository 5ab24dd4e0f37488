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
Router::acceptMessage(int input, const NocMessage &msg)
{
    if (input < 0 || static_cast<std::size_t>(input) >= inputs_.size())
        panic("Router::acceptMessage: invalid input port");
    Input &in = inputs_[static_cast<std::size_t>(input)];
    const Tick ready = now() + params_.routerLatency;
    in.q.emplace_back(ready, msg);
    const std::size_t idx = static_cast<std::size_t>(input);
    kernel().scheduleAt(ready, [this, idx] { processInput(idx); });
}

void
Router::processInput(std::size_t i)
{
    Input &in = inputs_[i];
    while (!in.q.empty()) {
        const auto &[ready, msg] = in.q.front();
        if (ready > now()) {
            // A later event (already scheduled at arrival) handles it.
            return;
        }
        const std::size_t o = static_cast<std::size_t>(routeFor(msg.dst));
        Output &out = *outputs_[o];
        if (!out.q.canAccept(msg.flits)) {
            // Head-of-line blocked; outputSerDone retries all inputs.
            return;
        }
        out.q.push(msg);
        messages_.inc();
        flits_.inc(msg.flits);
        if (probe_)
            probe_->record(PowerEvent::NocFlitHop, msg.flits);
        if (in.upstream)
            in.upstream->refundIn(params_.creditLatency, msg.flits);
        in.q.pop_front();
        tryDrain(o);
    }
}

void
Router::tryDrain(std::size_t o)
{
    Output &out = *outputs_[o];
    if (out.sending || out.q.empty())
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
    out.sending = true;
    const Channel::Times t = out.chan->reserve(head.flits, now());
    // One copy of the message for the in-flight arrival lambda (the
    // queue entry is popped when the channel frees); the Output lives
    // behind a unique_ptr, so its address is stable to capture.
    NocMessage msg = head;
    kernel().scheduleAt(t.serDone, [this, o] { outputSerDone(o); });
    if (out.dstRouter) {
        Router *dst = out.dstRouter;
        const int di = out.dstInput;
        kernel().scheduleAt(t.arrival, [dst, di, msg = std::move(msg)] {
            dst->acceptMessage(di, msg);
        });
    } else {
        Output *op = outputs_[o].get();
        kernel().scheduleAt(t.arrival, [op, msg = std::move(msg)] {
            op->eject.deliver(msg);
        });
    }
}

void
Router::outputSerDone(std::size_t o)
{
    Output &out = *outputs_[o];
    out.q.pop();
    out.sending = false;
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
