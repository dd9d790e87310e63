/**
 * @file
 * obs::FlightRing -- a crash-persistent flight recorder: a bounded,
 * wrapping event ring carved out of the shard's pmem arena and
 * written with the repo's own Lazy Persistency discipline.
 *
 * Hot path: record() copies one TraceEvent into the next 64B slot
 * with PLAIN STORES -- no flush, no fence, no allocation -- and seals
 * nothing. Each slot carries its sequence number and a mix64
 * checksum over its payload, exactly the journal-record idiom of
 * store/backend_lp.hh. Durability rides the page cache: under the
 * repo's process-crash (SIGKILL) failure envelope the MAP_SHARED
 * mapping IS the persistence domain, so everything the thread stored
 * before dying is recoverable. (A power-loss envelope would need a
 * clwb per slot line plus an sfence before each seal; the seal hook
 * is where that would go.)
 *
 * Seal: periodically -- the server does it when a shard's committed
 * epoch advances -- seal() publishes a watermark header naming the
 * sealed sequence prefix plus wall-clock/steady-clock anchors. The
 * two header copies alternate by generation parity, so a crash that
 * tears one seal always leaves the previous one intact.
 *
 * Recovery (postmortem, after SIGKILL): recover() validates the
 * header pair, picks the newest valid seal, and accepts exactly the
 * slots whose embedded sequence matches the position implied by the
 * sealed watermark and whose checksum validates. Slots from the torn
 * unsealed tail, half-overwritten wrap victims, and stale bytes from
 * an earlier incarnation all fail one of the two tests and are
 * counted, not returned.
 *
 * Placement contract: the server allocates the FlightRing FIRST in
 * each shard arena, so in every shard-N.lpdb file the region starts
 * at the arena's base offset (64). `lazyper_cli postmortem` depends
 * on this: it can find and decode the ring from the raw file alone,
 * with no knowledge of the store's backend or capacity configuration
 * (the ring's own header records its slot count).
 *
 * Event names cross the crash as small ids resolved against the
 * fixed kFlightNames table -- a const char* from a dead process
 * would be meaningless.
 */

#ifndef LP_OBS_FLIGHT_HH
#define LP_OBS_FLIGHT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.hh"
#include "pmem/arena.hh"

namespace lp::obs
{

/**
 * Span/instant names that survive a crash. Appending is fine; never
 * reorder or remove -- recovered nameIds index this table. Id 0
 * renders unknown names. Retired names keep their slot so older
 * flight rings still decode: "deadline_commit" (id 9) is no longer
 * emitted.
 */
constexpr const char *kFlightNames[] = {
    "?",           "parse",        "queue",
    "commit_wait", "ack",          "epoch_commit",
    "fold",        "scrub",        "recover_shard",
    "deadline_commit" /* retired */, "wal_commit",
    "crash",       "conn",         "txn_commit",
    "stage",       "drain",
};
constexpr std::uint32_t kFlightNameCount =
    sizeof(kFlightNames) / sizeof(kFlightNames[0]);

/** One persistent event slot; exactly one cache block. */
struct FlightSlot
{
    std::uint64_t seq;
    std::uint64_t tsNs;
    std::uint64_t durNs;
    std::uint64_t arg;
    std::uint64_t flowId;
    std::uint32_t nameId;
    std::uint32_t tid;
    std::uint64_t cksum;
    std::uint64_t pad;
};
static_assert(sizeof(FlightSlot) == 64, "slot must be one block");

/** Seal watermark; two copies alternate by generation parity. */
struct FlightHeader
{
    std::uint64_t magic;
    std::uint64_t gen;          ///< seal generation, monotonic
    std::uint64_t sealedSeq;    ///< slots with seq < this are sealed
    std::uint64_t tsAnchorNs;   ///< obs::nowNs() at seal
    std::uint64_t wallAnchorNs; ///< CLOCK_REALTIME ns at seal
    std::uint32_t tid;
    std::uint32_t capacity;     ///< slot count (power of two)
    std::uint64_t cksum;
    std::uint64_t pad;
};
static_assert(sizeof(FlightHeader) == 64, "header must be one block");

/** What recover() salvaged from a dead ring. */
struct FlightRecovered
{
    bool valid = false;         ///< a checksum-clean seal was found
    std::uint64_t gen = 0;
    std::uint64_t sealedSeq = 0;
    std::uint64_t tsAnchorNs = 0;
    std::uint64_t wallAnchorNs = 0;
    std::uint32_t tid = 0;
    std::uint32_t capacity = 0;
    std::uint64_t rejected = 0; ///< torn/stale slots discarded
    /// Checksum-clean sealed events, names resolved via kFlightNames.
    std::vector<TraceEvent> events;
};

class FlightRing : public TraceSink
{
  public:
    static constexpr std::uint64_t kMagic = 0x4c50464c54303156ULL;
    static constexpr std::uint32_t kMinEvents = 8;

    /** Slot count after power-of-two rounding (minimum 8). */
    static std::uint32_t roundEvents(std::uint32_t events);

    /** Arena bytes the ring occupies: two headers + the slots. */
    static std::size_t
    bytesFor(std::uint32_t events)
    {
        return (2 + std::size_t(roundEvents(events))) *
               sizeof(FlightSlot);
    }

    /**
     * Carve the ring out of @p arena (the next allocation) and start
     * a fresh generation: any valid prior seal's generation is read
     * first, then an empty seal at gen+1 claims the ring for this
     * incarnation. Run `postmortem` BEFORE restarting a crashed
     * store -- reconstruction overwrites the ring.
     */
    FlightRing(pmem::PersistentArena &arena, std::uint32_t events,
               std::uint32_t tid);

    /** TraceSink: persist one event. Plain stores, never allocates. */
    void record(const TraceEvent &e) override;

    /**
     * Publish the watermark covering everything record()ed so far.
     * One header write; rides the epoch-commit cadence.
     */
    void seal();

    std::uint64_t recorded() const { return seq_; }
    std::uint32_t capacity() const { return cap_; }
    const void *raw() const { return hdr_; }

    /**
     * Decode a (possibly dead) ring image from raw bytes: @p base
     * must point at the two headers (arena offset 64 in a shard
     * file); @p bytes bounds the readable region.
     */
    static FlightRecovered recover(const std::uint8_t *base,
                                   std::size_t bytes);

    /** Checksums, shared with recover() and the tests. */
    static std::uint64_t slotCksum(const FlightSlot &s);
    static std::uint64_t headerCksum(const FlightHeader &h);

  private:
    std::uint32_t nameIdOf(const char *name);

    FlightHeader *hdr_;  ///< two headers, [gen & 1] is next
    FlightSlot *slots_;
    std::uint32_t cap_ = 0;
    std::uint32_t tid_ = 0;
    std::uint64_t mask_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t gen_ = 0;

    /// Pointer-identity memo for name lookups: span names are
    /// string literals, so after the first strcmp resolution a
    /// pointer compare suffices.
    struct NameMemo
    {
        const char *ptr = nullptr;
        std::uint32_t id = 0;
    };
    NameMemo memo_[kFlightNameCount];
    std::uint32_t memoUsed_ = 0;
};

} // namespace lp::obs

#endif // LP_OBS_FLIGHT_HH
