#include "index/ordered_index.hh"

namespace lp::index
{

namespace
{

OrderedIndexNode *
makeNode(std::uint64_t key, std::uint64_t value, int height)
{
    auto *n = new OrderedIndexNode;
    n->key = key;
    n->value.store(value, std::memory_order_relaxed);
    n->height = height;
    n->limbo = nullptr;
    for (int i = 0; i < OrderedIndex::maxHeight; ++i)
        n->next[i].store(nullptr, std::memory_order_relaxed);
    return n;
}

} // namespace

OrderedIndex::OrderedIndex()
    : rngState_(0x9e3779b97f4a7c15ull)
{
    head_ = makeNode(0, 0, maxHeight);
    residentBytes_.store(sizeof(OrderedIndexNode),
                         std::memory_order_relaxed);
}

OrderedIndex::~OrderedIndex()
{
    clear();
    delete head_;
}

int
OrderedIndex::randomHeight()
{
    // xorshift64; deterministic per instance, so tower shapes (and
    // the sim bench's work) are reproducible run to run.
    std::uint64_t x = rngState_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rngState_ = x;
    int h = 1;
    while (h < maxHeight && (x & 3) == 0) {
        ++h;
        x >>= 2;
    }
    return h;
}

OrderedIndexNode *
OrderedIndex::findFrom(std::uint64_t key,
                       OrderedIndexNode **preds) const
{
    OrderedIndexNode *x = head_;
    for (int lvl = maxHeight - 1; lvl >= 0; --lvl) {
        for (;;) {
            OrderedIndexNode *nxt =
                x->next[lvl].load(std::memory_order_acquire);
            if (nxt != nullptr && nxt->key < key)
                x = nxt;
            else
                break;
        }
        if (preds != nullptr)
            preds[lvl] = x;
    }
    return x->next[0].load(std::memory_order_acquire);
}

void
OrderedIndex::insert(std::uint64_t key, std::uint64_t value)
{
    OrderedIndexNode *preds[maxHeight];
    OrderedIndexNode *hit = findFrom(key, preds);
    if (hit != nullptr && hit->key == key) {
        hit->value.store(value, std::memory_order_release);
        return;
    }
    const int h = randomHeight();
    OrderedIndexNode *n = makeNode(key, value, h);
    // Wire the new node first (not yet reachable), then publish
    // bottom-up with release stores: a reader arriving through any
    // level sees the key, its value and every lower link.
    for (int lvl = 0; lvl < h; ++lvl)
        n->next[lvl].store(
            preds[lvl]->next[lvl].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    for (int lvl = 0; lvl < h; ++lvl)
        preds[lvl]->next[lvl].store(n, std::memory_order_release);
    entries_.fetch_add(1, std::memory_order_relaxed);
    residentBytes_.fetch_add(sizeof(OrderedIndexNode),
                             std::memory_order_relaxed);
}

void
OrderedIndex::erase(std::uint64_t key)
{
    OrderedIndexNode *preds[maxHeight];
    OrderedIndexNode *hit = findFrom(key, preds);
    if (hit == nullptr || hit->key != key)
        return;
    // Unlink top-down; the node's own next-pointers stay intact so a
    // reader standing on it can keep advancing into the live list.
    for (int lvl = hit->height - 1; lvl >= 0; --lvl) {
        if (preds[lvl]->next[lvl].load(std::memory_order_relaxed) ==
            hit) {
            preds[lvl]->next[lvl].store(
                hit->next[lvl].load(std::memory_order_relaxed),
                std::memory_order_release);
        }
    }
    hit->limbo = limbo_;
    limbo_ = hit;
    entries_.fetch_sub(1, std::memory_order_relaxed);
    limboNodes_.fetch_add(1, std::memory_order_relaxed);
    // residentBytes_ unchanged: limbo nodes are still resident.
}

void
OrderedIndex::reclaim()
{
    std::uint64_t freed = 0;
    while (limbo_ != nullptr) {
        OrderedIndexNode *n = limbo_;
        limbo_ = n->limbo;
        delete n;
        ++freed;
    }
    if (freed > 0) {
        limboNodes_.store(0, std::memory_order_relaxed);
        residentBytes_.fetch_sub(freed * sizeof(OrderedIndexNode),
                                 std::memory_order_relaxed);
    }
}

void
OrderedIndex::clear()
{
    reclaim();
    OrderedIndexNode *n =
        head_->next[0].load(std::memory_order_relaxed);
    while (n != nullptr) {
        OrderedIndexNode *nxt =
            n->next[0].load(std::memory_order_relaxed);
        delete n;
        n = nxt;
    }
    for (int i = 0; i < maxHeight; ++i)
        head_->next[i].store(nullptr, std::memory_order_relaxed);
    entries_.store(0, std::memory_order_relaxed);
    residentBytes_.store(sizeof(OrderedIndexNode),
                         std::memory_order_relaxed);
}

bool
OrderedIndex::contains(std::uint64_t key) const
{
    const OrderedIndexNode *hit = findFrom(key, nullptr);
    return hit != nullptr && hit->key == key;
}

OrderedIndex::Cursor
OrderedIndex::lowerBound(std::uint64_t key) const
{
    return Cursor(findFrom(key, nullptr));
}

OrderedIndex::Cursor
OrderedIndex::first() const
{
    return Cursor(head_->next[0].load(std::memory_order_acquire));
}

} // namespace lp::index
